"""Cost-kernel tests: algebraic invariants and physical monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.model.costmodel import (
    colocation_context_scalar,
    distributed_metrics,
    fluid_stretch,
    pair_metrics,
    serial_pair_edp,
    standalone_metrics,
)
from repro.utils.units import GB, GHZ, MB
from repro.workloads.registry import get_app

WC = get_app("wc").profile
ST = get_app("st").profile
FP = get_app("fp").profile

FREQS = [1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ]

cfg_strategy = st.tuples(
    st.sampled_from(FREQS),
    st.sampled_from(HDFS_BLOCK_SIZES),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1 * GB, 5 * GB, 10 * GB]),
)


class TestStandalone:
    def test_energy_is_power_times_duration(self):
        jm = standalone_metrics(WC, 5 * GB, 2.4 * GHZ, 256 * MB, 4)
        assert float(jm.energy) == pytest.approx(float(jm.power) * float(jm.duration))
        assert float(jm.edp) == pytest.approx(float(jm.energy) * float(jm.duration))

    @settings(max_examples=60, deadline=None)
    @given(cfg=cfg_strategy)
    def test_utilizations_bounded(self, cfg):
        f, b, m, d = cfg
        for profile in (WC, ST, FP):
            jm = standalone_metrics(profile, d, f, b, m)
            for u in (jm.u_cpu, jm.u_disk, jm.u_net):
                assert 0.0 <= float(u) <= 1.0 + 1e-9
            assert float(jm.duration) > 0
            assert float(jm.power) > 0

    def test_duration_increases_with_data(self):
        t1 = float(standalone_metrics(WC, 1 * GB, 2.4 * GHZ, 256 * MB, 8).duration)
        t10 = float(standalone_metrics(WC, 10 * GB, 2.4 * GHZ, 256 * MB, 8).duration)
        assert t10 > 5 * t1

    def test_compute_bound_speeds_up_with_frequency(self):
        lo = float(standalone_metrics(WC, 5 * GB, 1.2 * GHZ, 256 * MB, 8).duration)
        hi = float(standalone_metrics(WC, 5 * GB, 2.4 * GHZ, 256 * MB, 8).duration)
        assert 1.5 < lo / hi < 2.0  # memory wall bounds the gain below 2x

    def test_io_bound_barely_speeds_up_with_frequency(self):
        lo = float(standalone_metrics(ST, 5 * GB, 1.2 * GHZ, 512 * MB, 4).duration)
        hi = float(standalone_metrics(ST, 5 * GB, 2.4 * GHZ, 512 * MB, 4).duration)
        assert lo / hi < 1.5

    def test_compute_bound_scales_with_mappers(self):
        one = float(standalone_metrics(WC, 5 * GB, 2.4 * GHZ, 256 * MB, 1).duration)
        eight = float(standalone_metrics(WC, 5 * GB, 2.4 * GHZ, 256 * MB, 8).duration)
        assert one / eight > 5.0

    def test_mappers_capped_by_task_count(self):
        # 1 GB at 1 GB blocks = 1 task; extra mappers are inert.
        a = standalone_metrics(WC, 1 * GB, 2.4 * GHZ, 1024 * MB, 1)
        b = standalone_metrics(WC, 1 * GB, 2.4 * GHZ, 1024 * MB, 8)
        assert float(a.duration) == pytest.approx(float(b.duration))
        assert float(b.m_eff) == 1.0

    def test_power_at_most_full_load(self):
        jm = standalone_metrics(WC, 10 * GB, 2.4 * GHZ, 256 * MB, 8)
        from repro.hardware.node import ATOM_C2758

        pm = ATOM_C2758.power
        upper = (
            pm.idle_power
            + 8 * pm.core_max_power
            + pm.mem_max_power
            + pm.disk_max_power
        )
        assert float(jm.power) <= upper

    def test_vectorised_grid_matches_scalar(self):
        f = np.array([1.2 * GHZ, 2.4 * GHZ])
        b = np.array([64 * MB, 512 * MB], dtype=float)
        m = np.array([2.0, 6.0])
        grid = standalone_metrics(ST, 5 * GB, f, b, m)
        for i in range(2):
            scalar = standalone_metrics(ST, 5 * GB, float(f[i]), float(b[i]), float(m[i]))
            assert float(grid.duration[i]) == pytest.approx(float(scalar.duration))
            assert float(grid.edp[i]) == pytest.approx(float(scalar.edp))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            standalone_metrics(WC, -1, 2.4 * GHZ, 256 * MB, 4)
        with pytest.raises(ValueError):
            standalone_metrics(WC, 1 * GB, 2.4 * GHZ, 256 * MB, 0)
        with pytest.raises(ValueError, match="non-DVFS"):
            standalone_metrics(WC, 1 * GB, 1.9 * GHZ, 256 * MB, 4)


class TestPair:
    def test_makespan_at_least_each_job(self):
        pm = pair_metrics(
            WC, 5 * GB, 2.4 * GHZ, 256 * MB, 4,
            ST, 5 * GB, 2.4 * GHZ, 256 * MB, 4,
        )
        assert float(pm.makespan) >= float(pm.duration_a) - 1e-9
        assert float(pm.makespan) >= float(pm.duration_b) - 1e-9
        assert float(pm.stretch) >= 1.0

    def test_core_partition_enforced(self):
        with pytest.raises(ValueError, match="core partition"):
            pair_metrics(
                WC, 5 * GB, 2.4 * GHZ, 256 * MB, 5,
                ST, 5 * GB, 2.4 * GHZ, 256 * MB, 5,
            )

    def test_two_io_jobs_interleave_without_stretch(self):
        """The co-location premise: tuned I jobs leave enough slack."""
        pm = pair_metrics(
            ST, 5 * GB, 2.0 * GHZ, 512 * MB, 4,
            ST, 5 * GB, 2.0 * GHZ, 512 * MB, 4,
        )
        assert float(pm.stretch) < 1.25

    def test_colocation_beats_serial_for_io_pairs(self):
        pm = pair_metrics(
            ST, 5 * GB, 2.0 * GHZ, 512 * MB, 4,
            ST, 5 * GB, 2.0 * GHZ, 512 * MB, 4,
        )
        serial = serial_pair_edp(pm.job_a, pm.job_b)
        assert float(pm.edp) < float(serial)

    def test_symmetric_arguments(self):
        ab = pair_metrics(
            WC, 5 * GB, 2.4 * GHZ, 256 * MB, 3,
            ST, 10 * GB, 2.0 * GHZ, 512 * MB, 5,
        )
        ba = pair_metrics(
            ST, 10 * GB, 2.0 * GHZ, 512 * MB, 5,
            WC, 5 * GB, 2.4 * GHZ, 256 * MB, 3,
        )
        assert float(ab.edp) == pytest.approx(float(ba.edp))
        assert float(ab.makespan) == pytest.approx(float(ba.makespan))

    @settings(max_examples=30, deadline=None)
    @given(cfg_a=cfg_strategy, cfg_b=cfg_strategy)
    def test_pair_invariants(self, cfg_a, cfg_b):
        fa, ba, ma, da = cfg_a
        fb, bb, mb, db = cfg_b
        if ma + mb > 8:
            return
        pm = pair_metrics(WC, da, fa, ba, ma, ST, db, fb, bb, mb)
        assert float(pm.stretch) >= 1.0
        assert float(pm.energy) > 0
        assert float(pm.makespan) >= max(
            float(pm.job_a.duration), float(pm.job_b.duration)
        ) - 1e-6
        # The pair is never faster than the slower member alone.
        assert float(pm.edp) > 0


class TestColocationContext:
    """Invariants of the engine's k-job context (one tuple per job)."""

    def test_single_job_is_neutral(self):
        [(mpki, _disk, extra)] = colocation_context_scalar([WC], [4.0])
        assert mpki == pytest.approx(1.0)
        assert extra == 0.0

    def test_even_split_shares_no_module(self):
        ctx = colocation_context_scalar([FP, FP], [4.0, 4.0])
        assert np.allclose([mpki for mpki, _d, _e in ctx], 1.0)

    def test_odd_split_inflates_mpki(self):
        mpki = [m for m, _d, _e in colocation_context_scalar([FP, FP], [5.0, 3.0])]
        assert all(m >= 1.0 for m in mpki)
        assert any(m > 1.0 for m in mpki)

    def test_footprint_overcommit_raises_disk_traffic(self):
        small = colocation_context_scalar([WC, WC], [2.0, 2.0])
        big = colocation_context_scalar([FP, FP], [4.0, 4.0])
        assert big[0][1] > small[0][1]

    def test_extra_streams_are_corunners(self):
        ctx = colocation_context_scalar([WC, ST, FP], [2.0, 3.0, 3.0])
        assert [extra for _m, _d, extra in ctx] == [6.0, 5.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            colocation_context_scalar([], [])
        with pytest.raises(ValueError):
            colocation_context_scalar([WC], [0.5])
        with pytest.raises(ValueError):
            colocation_context_scalar([WC, ST], [1.0])


class TestFluidStretchAndDistributed:
    def test_fluid_stretch_empty(self):
        assert fluid_stretch([]) == 1.0

    def test_fluid_stretch_sums_demands(self):
        jm = standalone_metrics(ST, 5 * GB, 2.4 * GHZ, 256 * MB, 4)
        s = fluid_stretch([jm, jm])
        assert s >= 2 * float(jm.u_disk) - 1e-9

    def test_distributed_splits_data(self):
        one = distributed_metrics(WC, 8 * GB, 1, 2.4 * GHZ, 256 * MB, 8)
        eight = distributed_metrics(WC, 8 * GB, 8, 2.4 * GHZ, 256 * MB, 8)
        # Sub-linear scaling: overheads and stragglers eat some gain.
        assert float(eight["makespan"]) < float(one["makespan"]) / 3
        # Eight nodes burn more total energy (idle floors), but the
        # much shorter makespan still wins on EDP.
        assert float(eight["energy"]) > float(one["energy"])
        assert float(eight["edp"]) < float(one["edp"])

    def test_distributed_straggler_grows_with_scale(self):
        two = distributed_metrics(WC, 8 * GB, 2, 2.4 * GHZ, 256 * MB, 8)
        four = distributed_metrics(WC, 8 * GB, 4, 2.4 * GHZ, 256 * MB, 8)
        # Per-node share halves, but makespan shrinks by less than 2x.
        assert float(two["makespan"]) / float(four["makespan"]) < 2.0

    def test_distributed_validation(self):
        with pytest.raises(ValueError):
            distributed_metrics(WC, 1 * GB, 0, 2.4 * GHZ, 256 * MB, 8)
