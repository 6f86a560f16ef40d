"""Parallel sweep executor: determinism, chunk-merge, telemetry.

The load-bearing property is *bit-identical equivalence*: every array
and every chosen configuration from the process-pool path must equal
the serial path exactly — a database built with ``REPRO_WORKERS=8``
is the same object as one built with ``REPRO_WORKERS=1``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.database import build_database
from repro.core.stp import SoloSTP, build_training_dataset
from repro.hardware.node import ATOM_C2758
from repro.model.config import pair_config_grid
from repro.model.sweep import merge_pair_sweeps, sweep_pair, sweep_solo
from repro.parallel import WORKERS_ENV, SweepExecutor, worker_count
from repro.telemetry.counters import SweepTelemetry
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


@pytest.fixture(scope="module")
def small_pairs():
    a = AppInstance(get_app("st"), 1 * GB)
    b = AppInstance(get_app("wc"), 1 * GB)
    c = AppInstance(get_app("ts"), 5 * GB)
    return [(a, b), (b, c), (a, a)]


@pytest.fixture(scope="module")
def small_instances():
    return [AppInstance(get_app(code), 1 * GB) for code in ("wc", "st", "ts")]


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("raw", ["0", "auto", "AUTO"])
    def test_env_auto(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        assert worker_count() == (os.cpu_count() or 1)

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert worker_count(2) == 2

    def test_explicit_zero_means_all_cores(self):
        assert worker_count(0) == (os.cpu_count() or 1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            worker_count()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            worker_count(-1)

    def test_bad_freq_chunk_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(1, freq_chunk=0)


def _square(x: int) -> int:
    return x * x


class TestMap:
    def test_serial_order_preserved(self):
        assert SweepExecutor(1).map(_square, range(10)) == [i * i for i in range(10)]

    def test_parallel_order_preserved(self):
        assert SweepExecutor(2).map(_square, range(10)) == [i * i for i in range(10)]

    def test_empty(self):
        assert SweepExecutor(2).map(_square, []) == []


class TestChunkMerge:
    def test_freqs_a_chunks_concatenate_to_full_grid(self):
        node = ATOM_C2758
        full = pair_config_grid(node)
        parts = [pair_config_grid(node, freqs_a=[f]) for f in node.frequencies]
        for axis in range(6):
            merged = np.concatenate([p[axis] for p in parts])
            assert np.array_equal(merged, full[axis])

    def test_merged_chunks_bit_identical_to_full_sweep(self, small_pairs):
        a, b = small_pairs[0]
        full = sweep_pair(a, b)
        chunks = [
            sweep_pair(a, b, freqs_a=[f]) for f in ATOM_C2758.frequencies
        ]
        merged = merge_pair_sweeps(chunks)
        assert np.array_equal(merged.edp, full.edp)
        assert merged.best_index == full.best_index
        assert merged.best_configs == full.best_configs
        for name in ("freq_a", "block_a", "mappers_a", "freq_b", "block_b", "mappers_b"):
            assert np.array_equal(getattr(merged, name), getattr(full, name))

    def test_single_chunk_passthrough(self, small_pairs):
        a, b = small_pairs[0]
        sweep = sweep_pair(a, b)
        assert merge_pair_sweeps([sweep]) is sweep

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_pair_sweeps([])

    def test_mismatched_pairs_rejected(self, small_pairs):
        (a, b), (c, d) = small_pairs[0], small_pairs[1]
        with pytest.raises(ValueError, match="different pairs"):
            merge_pair_sweeps([sweep_pair(a, b), sweep_pair(c, d)])


class TestParallelSerialEquivalence:
    """Every result from the pool path == the serial path, bitwise."""

    def test_pair_sweeps(self, small_pairs):
        serial = SweepExecutor(1).sweep_pairs(small_pairs)
        parallel = SweepExecutor(2, freq_chunk=1).sweep_pairs(small_pairs)
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.edp, p.edp)
            assert np.array_equal(s.metrics.energy, p.metrics.energy)
            assert np.array_equal(s.metrics.makespan, p.metrics.makespan)
            assert s.best_index == p.best_index
            assert s.best_configs == p.best_configs

    def test_pair_bests(self, small_pairs):
        direct = [sweep_pair(a, b) for a, b in small_pairs]
        for workers in (1, 2):
            bests = SweepExecutor(workers, freq_chunk=1).sweep_pairs_best(small_pairs)
            for ref, best in zip(direct, bests):
                assert best.best_index == ref.best_index
                assert best.best_edp == ref.best_edp
                assert best.best_configs == ref.best_configs

    def test_solo_sweeps(self, small_instances):
        direct = [sweep_solo(i) for i in small_instances]
        parallel = SweepExecutor(2).sweep_solos(small_instances)
        for s, p in zip(direct, parallel):
            assert np.array_equal(s.edp, p.edp)
            assert s.best_config == p.best_config

    def test_build_database(self, small_instances):
        db_serial, _ = build_database(small_instances, executor=SweepExecutor(1))
        db_parallel, _ = build_database(
            small_instances, executor=SweepExecutor(2, freq_chunk=1)
        )
        assert db_serial.entries == db_parallel.entries

    def test_build_database_keep_sweeps_same_entries(self, small_instances):
        db_best, _ = build_database(small_instances)
        db_full, sweeps = build_database(small_instances, keep_sweeps=True)
        assert db_best.entries == db_full.entries
        assert len(sweeps) == len(db_full.entries)

    def test_training_dataset_fixed_seed(self, small_instances):
        serial = build_training_dataset(
            small_instances, rows_per_pair=50, seed=0, executor=SweepExecutor(1)
        )
        parallel = build_training_dataset(
            small_instances,
            rows_per_pair=50,
            seed=0,
            executor=SweepExecutor(2, freq_chunk=1),
        )
        assert np.array_equal(serial.X, parallel.X)
        assert np.array_equal(serial.y, parallel.y)
        assert np.array_equal(serial.pair_codes, parallel.pair_codes)

    def test_solo_stp_fit(self, small_instances):
        a = AppInstance(get_app("nb"), 1 * GB)
        from repro.core.stp import describe_instance

        desc = describe_instance(a, seed=0)
        cfg_serial = (
            SoloSTP("lr").fit(small_instances, seed=0, executor=SweepExecutor(1))
        ).predict_config(desc)
        cfg_parallel = (
            SoloSTP("lr").fit(small_instances, seed=0, executor=SweepExecutor(2))
        ).predict_config(desc)
        assert cfg_serial == cfg_parallel


class TestExperimentDrivers:
    def test_fig2_parallel_equals_serial(self):
        from repro.experiments.fig2_tuning import run_fig2

        serial = run_fig2("wc", data_bytes=1 * GB, executor=SweepExecutor(1))
        parallel = run_fig2("wc", data_bytes=1 * GB, executor=SweepExecutor(2))
        assert serial == parallel

    def test_table2_parallel_equals_serial(self, small_database):
        from repro.core.stp import LkTSTP
        from repro.experiments.table2_configs import run_table2

        kwargs = dict(
            workloads=((("nb", 1), ("km", 1)),),
            techniques={"LkT": LkTSTP(small_database)},
        )
        serial = run_table2(executor=SweepExecutor(1), **kwargs)
        parallel = run_table2(executor=SweepExecutor(2, freq_chunk=1), **kwargs)
        assert serial == parallel


class TestTelemetry:
    def test_tasks_and_batches_recorded(self, small_pairs):
        tel = SweepTelemetry()
        SweepExecutor(1, telemetry=tel).sweep_pairs(small_pairs)
        assert tel.n_tasks == len(small_pairs)
        assert tel.n_batches == 1
        assert tel.task_wall_s > 0.0
        assert tel.batch_wall_s > 0.0
        assert len(tel.worker_wall_s) == 1  # serial: one worker (this pid)

    def test_parallel_workers_visible(self, small_pairs):
        tel = SweepTelemetry()
        SweepExecutor(2, freq_chunk=1, telemetry=tel).sweep_pairs(small_pairs)
        # 4 frequency chunks per pair
        assert tel.n_tasks == 4 * len(small_pairs)
        assert tel.task_wall_s > 0.0

    def test_cache_delta_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import artifacts

        artifacts.reset_cache_stats()
        tel = SweepTelemetry()
        exec_ = SweepExecutor(1, telemetry=tel)

        def probe(_item):
            return artifacts.cached("tel-probe", lambda: 1)

        exec_.map(probe, [0])
        exec_.map(probe, [0])
        assert (tel.cache_hits, tel.cache_misses) == (1, 1)
        assert tel.cache_hit_rate == pytest.approx(0.5)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4 or not os.environ.get("REPRO_PERF_TEST"),
    reason="needs >=4 cores and REPRO_PERF_TEST=1",
)
class TestSpeedup:
    def test_pair_sweep_database_build_faster_with_four_workers(self):
        """On a 4-core runner the fanned-out database build must beat
        serial (opt-in: wall-clock assertions are hardware-bound)."""
        import time

        from repro.workloads.registry import TRAINING_APPS, instances_for

        instances = instances_for(TRAINING_APPS)
        t0 = time.perf_counter()
        db_serial, _ = build_database(instances, executor=SweepExecutor(1))
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        db_parallel, _ = build_database(instances, executor=SweepExecutor(4))
        parallel_s = time.perf_counter() - t0
        assert db_serial.entries == db_parallel.entries
        assert parallel_s < serial_s
