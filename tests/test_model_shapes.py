"""Calibration shape tests: the paper's qualitative findings.

These assert the headline phenomena the reproduction is built around —
if a profile or hardware-constant change breaks one of the paper's
observed shapes, this file is where it shows up.
"""

import numpy as np
import pytest

from repro.baselines.colao import colao_best
from repro.baselines.ilao import ilao_best, ilao_pair_edp
from repro.model.costmodel import standalone_metrics
from repro.model.sweep import sweep_solo
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app


@pytest.fixture(scope="module")
def solo_best():
    return {
        code: ilao_best(AppInstance(get_app(code), 10 * GB)) for code in ALL_APPS
    }


class TestClassSignatures:
    """§3: tuned solo runs must show each class's resource signature."""

    def test_compute_bound_high_cpu_low_disk(self, solo_best):
        for code in ("wc", "svm", "hmm"):
            r = solo_best[code]
            i = r.sweep.best_index
            assert float(r.sweep.metrics.u_cpu[i]) > 0.8
            assert float(r.sweep.metrics.u_disk[i]) < 0.35

    def test_io_bound_high_disk_low_cpu(self, solo_best):
        for code in ("st", "nb"):
            r = solo_best[code]
            i = r.sweep.best_index
            assert float(r.sweep.metrics.u_disk[i]) > 0.5
            assert float(r.sweep.metrics.u_cpu[i]) < 0.45

    def test_memory_bound_longest_and_bandwidth_hungry(self, solo_best):
        m_durations = [solo_best[c].duration for c in ("fp", "cf", "pr")]
        others = [
            solo_best[c].duration for c in ALL_APPS if c not in ("fp", "cf", "pr")
        ]
        assert min(m_durations) > max(others) * 0.9
        for code in ("fp", "cf", "pr"):
            r = solo_best[code]
            i = r.sweep.best_index
            from repro.hardware.node import ATOM_C2758

            u_mem = float(r.sweep.metrics.mem_demand[i]) / ATOM_C2758.membw.achievable_bw
            assert u_mem > 0.5


class TestColocationShapes:
    """§4.2 / Fig. 3 / Fig. 5 shapes."""

    def test_io_pair_gains_most_from_colocation(self, solo_best):
        reps = {"I": "st", "C": "wc", "H": "gp", "M": "fp"}
        ratios = {}
        for ka, a in reps.items():
            for kb, b in reps.items():
                if ka > kb:
                    continue
                co = colao_best(
                    AppInstance(get_app(a), 10 * GB), AppInstance(get_app(b), 10 * GB)
                )
                ratios[f"{ka}-{kb}"] = (
                    ilao_pair_edp(solo_best[a], solo_best[b]) / co.edp
                )
        assert max(ratios, key=ratios.get) == "I-I"
        assert ratios["I-I"] > 1.8  # the paper's headline co-location win
        # Memory-bound pairs close the gap (paper: "EDP gap reduces").
        assert ratios["M-M"] < ratios["I-I"] / 1.5

    def test_m_class_prefers_many_cores_in_pairs(self):
        co = colao_best(
            AppInstance(get_app("wc"), 1 * GB), AppInstance(get_app("fp"), 10 * GB)
        )
        # The long memory-bound job takes the lion's share of cores.
        assert co.config_b.n_mappers > co.config_a.n_mappers


class TestTuningSensitivity:
    """§4.1 / Fig. 2 shapes."""

    def test_sensitivity_decreases_with_mappers(self):
        profile = get_app("st").profile
        improvements = []
        for m in (1, 4, 8):
            base = float(
                standalone_metrics(profile, 10 * GB, 1.2 * GHZ, 64 * MB, m).edp
            )
            freqs = np.array([1.2, 1.6, 2.0, 2.4]) * GHZ
            blocks = np.array([64, 128, 256, 512, 1024]) * MB
            ff, bb = np.meshgrid(freqs, blocks, indexing="ij")
            best = float(
                standalone_metrics(profile, 10 * GB, ff.ravel(), bb.ravel(), m).edp.min()
            )
            improvements.append(base / best)
        assert improvements[0] > improvements[1] > improvements[2]

    def test_concurrent_tuning_beats_individual(self):
        for code in ("wc", "st", "ts"):
            profile = get_app(code).profile
            for m in (2, 6):
                base_args = (profile, 10 * GB)
                base = float(standalone_metrics(*base_args, 1.2 * GHZ, 64 * MB, m).edp)
                freqs = np.array([1.2, 1.6, 2.0, 2.4]) * GHZ
                blocks = np.array([64, 128, 256, 512, 1024], dtype=float) * MB
                f_best = base / float(
                    standalone_metrics(*base_args, freqs, 64 * MB, m).edp.min()
                )
                b_best = base / float(
                    standalone_metrics(*base_args, 1.2 * GHZ, blocks, m).edp.min()
                )
                ff, bb = np.meshgrid(freqs, blocks, indexing="ij")
                joint = base / float(
                    standalone_metrics(*base_args, ff.ravel(), bb.ravel(), m).edp.min()
                )
                assert joint >= max(f_best, b_best) - 1e-9


class TestOptimalConfigShapes:
    """Table 2-style shapes: where the optima live."""

    def test_solo_optimum_prefers_high_frequency(self):
        for code in ("wc", "gp", "fp"):
            best = sweep_solo(AppInstance(get_app(code), 10 * GB)).best_config
            assert best.frequency >= 2.0 * GHZ

    def test_solo_optimum_avoids_tiny_blocks(self):
        for code in ALL_APPS:
            best = sweep_solo(AppInstance(get_app(code), 10 * GB)).best_config
            assert best.block_size >= 128 * MB
