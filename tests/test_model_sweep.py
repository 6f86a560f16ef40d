"""Sweep-harness tests."""

import copy

import numpy as np
import pytest

from repro.hardware.classes import XEON_E5
from repro.hardware.node import ATOM_C2758
from repro.model.config import pair_config_grid
from repro.model.costmodel import pair_metrics
from repro.model.sweep import sweep_pair, sweep_solo
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app

SIZES = (1 * GB, 5 * GB, 10 * GB)


@pytest.fixture(scope="module")
def solo():
    return sweep_solo(AppInstance(get_app("st"), 5 * GB))


@pytest.fixture(scope="module")
def pair():
    return sweep_pair(
        AppInstance(get_app("st"), 5 * GB), AppInstance(get_app("wc"), 5 * GB)
    )


class TestSolo:
    def test_covers_160_configs(self, solo):
        assert len(solo.edp) == 160

    def test_best_is_minimum(self, solo):
        assert solo.best_edp == pytest.approx(float(solo.edp.min()))
        assert solo.edp[solo.best_index] == solo.best_edp

    def test_best_config_consistent_with_index(self, solo):
        cfg = solo.best_config
        i = solo.best_index
        assert cfg.frequency == solo.freq[i]
        assert cfg.block_size == int(solo.block[i])
        assert cfg.n_mappers == int(solo.mappers[i])

    def test_config_at_arbitrary_index(self, solo):
        cfg = solo.config_at(0)
        cfg.validate_for(__import__("repro.hardware.node", fromlist=["ATOM_C2758"]).ATOM_C2758)


class TestPair:
    def test_covers_2800_configs(self, pair):
        assert len(pair.edp) == 2800

    def test_best_configs_partition_cores(self, pair):
        ca, cb = pair.best_configs
        assert ca.n_mappers + cb.n_mappers == 8

    def test_best_for_partition(self, pair):
        idx, edp = pair.best_for_partition(4, 4)
        assert pair.mappers_a[idx] == 4 and pair.mappers_b[idx] == 4
        assert edp >= pair.best_edp

    def test_best_for_partition_unknown(self, pair):
        with pytest.raises(ValueError):
            pair.best_for_partition(7, 7)

    def test_custom_partitions(self):
        sw = sweep_pair(
            AppInstance(get_app("st"), 1 * GB),
            AppInstance(get_app("wc"), 1 * GB),
            partitions=[(2, 6), (6, 2)],
        )
        assert len(sw.edp) == 800
        assert set(np.unique(sw.mappers_a)) == {2.0, 6.0}


def _assert_sweep_is_pair_metrics(sw, node, partitions=None):
    """Every field of the factored sweep equals ``pair_metrics`` over
    the same grid, bit for bit: the grid columns, every ``PairMetrics``
    field, and every per-job field gathered onto the grid."""
    grid = pair_config_grid(node, partitions=partitions)
    f1, b1, m1, f2, b2, m2 = grid
    a, b = sw.instance_a, sw.instance_b
    ref = pair_metrics(
        a.profile, a.data_bytes, f1, b1, m1, b.profile, b.data_bytes, f2, b2, m2,
        node=node,
    )
    columns = (sw.freq_a, sw.block_a, sw.mappers_a, sw.freq_b, sw.block_b, sw.mappers_b)
    for got, want in zip(columns, grid):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    label = f"{node.name} {a.app.code}@{a.data_bytes} {b.app.code}@{b.data_bytes}"
    for name, want in vars(ref).items():
        if name in ("job_a", "job_b"):
            continue
        got = getattr(sw.metrics, name)
        assert got.shape == want.shape, f"{label}: {name}"
        assert np.array_equal(got, want), f"{label}: {name}"
    assert sw.metrics.job_a is None and sw.metrics.job_b is None
    for job, take, want_job in (
        (sw.job_a, sw.take_a, ref.job_a),
        (sw.job_b, sw.take_b, ref.job_b),
    ):
        for name, want in vars(want_job).items():
            got = getattr(job, name)
            got = got[take] if got.ndim else got
            assert got.shape == want.shape, f"{label}: job field {name}"
            assert np.array_equal(got, want), f"{label}: job field {name}"


class TestFactoredPairSweep:
    @pytest.mark.parametrize("node", [ATOM_C2758, XEON_E5], ids=lambda n: n.name)
    def test_bit_identical_to_pair_metrics(self, node):
        """Every registry pair in both orientations; each app meets
        every size on each side."""
        apps = [get_app(code) for code in ALL_APPS]
        for i, app_a in enumerate(apps):
            for j in range(i, len(apps)):
                k = (i + j) % len(SIZES)
                a = AppInstance(app_a, SIZES[k])
                b = AppInstance(apps[j], SIZES[(k + 1) % len(SIZES)])
                for x, y in ((a, b), (b, a)):
                    _assert_sweep_is_pair_metrics(sweep_pair(x, y, node=node), node)

    def test_every_size_on_both_sides(self):
        for za in SIZES:
            for zb in SIZES:
                a = AppInstance(get_app("km"), za)
                b = AppInstance(get_app("ts"), zb)
                _assert_sweep_is_pair_metrics(sweep_pair(a, b), ATOM_C2758)

    @pytest.mark.parametrize(
        "partitions", [[(2, 6), (6, 2)], [(1, 1), (3, 4), (2, 2)], [(4, 4)]]
    )
    def test_custom_partitions_bit_identical(self, partitions):
        a = AppInstance(get_app("svm"), 5 * GB)
        b = AppInstance(get_app("wc"), 1 * GB)
        sw = sweep_pair(a, b, partitions=partitions)
        assert len(sw.edp) == 400 * len(partitions)
        _assert_sweep_is_pair_metrics(sw, ATOM_C2758, partitions)

    def test_invalid_partition_rejected(self):
        a = AppInstance(get_app("st"), 1 * GB)
        with pytest.raises(ValueError, match="core partition"):
            sweep_pair(a, a, partitions=[(5, 4)])

    def test_grid_shared_read_only_and_keyed_by_shape(self):
        """Equal nodes share one plan even though ``NodeSpec`` compares
        its DVFS table by identity (a deep copy is unequal)."""
        a = AppInstance(get_app("st"), 1 * GB)
        b = AppInstance(get_app("wc"), 5 * GB)
        twin = copy.deepcopy(ATOM_C2758)
        assert twin != ATOM_C2758
        first, second = sweep_pair(a, b), sweep_pair(b, a, node=twin)
        for name in ("freq_a", "block_a", "mappers_a", "take_a", "take_b"):
            assert getattr(first, name) is getattr(second, name)
            assert not getattr(first, name).flags.writeable
        _assert_sweep_is_pair_metrics(second, twin)
