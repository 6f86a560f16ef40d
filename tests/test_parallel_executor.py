"""The sweep reductions: what they keep is exactly the full sweep's.

``sweep_pairs_sampled`` and ``sweep_pairs_best`` drop each full
``PairSweepResult`` before the next pair is swept; the optimum and the
sampled rows they return must equal the full sweep's, in input order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.model.sweep import sweep_pair, sweep_solo
from repro.parallel import (
    sample_pair_sweep,
    sweep_pairs_best,
    sweep_pairs_sampled,
    sweep_solos,
)
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

KNOBS = ("freq_a", "block_a", "mappers_a", "freq_b", "block_b", "mappers_b")


@pytest.fixture(scope="module")
def small_pairs():
    a = AppInstance(get_app("st"), 1 * GB)
    b = AppInstance(get_app("wc"), 1 * GB)
    c = AppInstance(get_app("ts"), 5 * GB)
    return [(a, b), (b, c), (a, a)]


@pytest.fixture(scope="module")
def small_instances():
    return [AppInstance(get_app(code), 1 * GB) for code in ("wc", "st", "ts")]


def assert_best_of(best, a, b, sweep):
    assert best.instance_a is a and best.instance_b is b
    assert best.best_index == sweep.best_index
    assert best.best_edp == sweep.best_edp
    assert best.best_configs == sweep.best_configs


class TestSweepReductions:
    def test_pair_sweeps(self, small_pairs):
        """Each pair's optimum and its rows at the drawn indices (the
        optimum forced in) are the full sweep's."""
        rng = np.random.default_rng(0)
        indices = [rng.choice(2800, size=50, replace=False) for _ in small_pairs]
        swept = sweep_pairs_sampled(small_pairs, indices)
        assert len(swept) == len(small_pairs)
        for (a, b), idx, (best, rows) in zip(small_pairs, indices, swept):
            sweep = sweep_pair(a, b)
            assert_best_of(best, a, b, sweep)
            if sweep.best_index not in idx:
                idx = idx.copy()
                idx[0] = sweep.best_index
            for name in KNOBS:
                assert np.array_equal(getattr(rows, name), getattr(sweep, name)[idx])
            assert np.array_equal(rows.edp, sweep.edp[idx])

    def test_optimum_forced_into_sample(self, small_pairs):
        a, b = small_pairs[0]
        sweep = sweep_pair(a, b)
        idx = np.array([i for i in range(8) if i != sweep.best_index][:5])
        drawn = idx.copy()
        rows = sample_pair_sweep(sweep, idx)
        assert rows.edp[0] == sweep.best_edp
        assert np.array_equal(rows.edp[1:], sweep.edp[drawn[1:]])
        assert np.array_equal(idx, drawn)  # the caller's indices are untouched
        # An index set that already holds the optimum is used as drawn.
        held = np.array([3, sweep.best_index, 7])
        assert np.array_equal(sample_pair_sweep(sweep, held).edp, sweep.edp[held])

    def test_pair_bests(self, small_pairs):
        bests = sweep_pairs_best(small_pairs)
        assert len(bests) == len(small_pairs)
        for (a, b), best in zip(small_pairs, bests):
            assert_best_of(best, a, b, sweep_pair(a, b))

    def test_solo_sweeps(self, small_instances):
        for inst, swept in zip(small_instances, sweep_solos(small_instances), strict=True):
            direct = sweep_solo(inst)
            assert np.array_equal(swept.edp, direct.edp)
            assert swept.best_config == direct.best_config

    def test_results_in_input_order(self, small_pairs):
        forward = sweep_pairs_best(small_pairs)
        backward = sweep_pairs_best(small_pairs[::-1])
        assert backward == forward[::-1]

    def test_empty(self):
        assert sweep_solos([]) == []
        assert sweep_pairs_best([]) == []
        assert sweep_pairs_sampled([], []) == []

    def test_one_index_set_per_pair(self, small_pairs):
        with pytest.raises(ValueError):
            sweep_pairs_sampled(small_pairs, [np.arange(5)])


def test_decision_and_service_paths_load_no_multiprocessing():
    """The sweeps run in the calling process, so importing the ECoST
    controller, the online scenario and the HTTP service loads no
    ``multiprocessing`` module."""
    code = (
        "import json, sys\n"
        "import repro.core.controller, repro.online.scenario, repro.service.server\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'multiprocessing')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert json.loads(out.stdout) == []
