"""Bit-identity of the engine's scalar twin vs the array code.

The discrete-event engine runs on :func:`standalone_metrics_scalar` /
:func:`colocation_context_scalar`; every seeded experiment output is
therefore only reproducible if the scalar twin is *exactly* (not
approximately) equal to the array code it mirrors: the kernel
:func:`standalone_metrics` and the batch layer's
:func:`~repro.batch.kernel.colocation_context_soa`.  These tests assert
``==`` on every field over randomized draws of the full knob/coupling
space.
"""

import math

import numpy as np
import pytest

from repro.batch.kernel import ProfileSoA, colocation_context_soa
from repro.hardware.classes import XEON_E5
from repro.hardware.node import ATOM_C2758
from repro.model.costmodel import (
    ScalarJobMetrics,
    _dyn_scale_scalar,
    colocation_context_scalar,
    standalone_metrics,
    standalone_metrics_scalar,
)
from repro.utils.units import GB, GHZ, MB
from repro.workloads.registry import ALL_APPS, get_app

FIELDS = ScalarJobMetrics.__slots__

FREQS = [1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ]
BLOCKS = [64 * MB, 128 * MB, 256 * MB, 512 * MB, 1024 * MB]


def _assert_identical(scalar: ScalarJobMetrics, arr, label: str) -> None:
    for f in FIELDS:
        got = getattr(scalar, f)
        want = arr.scalar(f)
        assert got == want, f"{label}: field {f}: {got!r} != {want!r}"


class TestStandaloneScalar:
    def test_grid_bit_identity(self):
        """Every app × size × knob corner, neutral context."""
        for code in ALL_APPS:
            p = get_app(code).profile
            for size in (1 * GB, 5 * GB):
                for f in FREQS:
                    for b in (64 * MB, 512 * MB):
                        for m in (1, 4, 8):
                            s = standalone_metrics_scalar(p, size, f, b, m)
                            a = standalone_metrics(p, size, f, b, m)
                            _assert_identical(s, a, f"{code}/{size}/{f}/{b}/{m}")

    def test_randomized_with_couplings(self):
        """Random coupling scales (the co-location regime)."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = get_app(ALL_APPS[int(rng.integers(len(ALL_APPS)))]).profile
            size = int(rng.integers(1, 20)) * 512 * MB
            f = FREQS[int(rng.integers(4))]
            b = BLOCKS[int(rng.integers(5))]
            m = int(rng.integers(1, 9))
            mpki = float(1.0 + rng.random() * 2.0)
            disk = float(1.0 + rng.random())
            extra = float(rng.integers(0, 9))
            rf = None if rng.random() < 0.5 else float(rng.random())
            s = standalone_metrics_scalar(
                p, size, f, b, m, mpki_scale=mpki,
                disk_traffic_scale=disk, extra_streams=extra,
                remote_fraction=rf,
            )
            a = standalone_metrics(
                p, size, f, b, m, mpki_scale=mpki,
                disk_traffic_scale=disk, extra_streams=extra,
                remote_fraction=rf,
            )
            _assert_identical(s, a, "randomized")

    def test_scalar_fields_are_plain_floats(self):
        s = standalone_metrics_scalar(get_app("wc").profile, 1 * GB, 2.4 * GHZ, 128 * MB, 4)
        for f in FIELDS:
            assert type(getattr(s, f)) is float
        assert s.scalar("edp") == s.edp

    def test_derived_invariants(self):
        s = standalone_metrics_scalar(get_app("st").profile, 5 * GB, 1.6 * GHZ, 256 * MB, 4)
        assert s.energy == pytest.approx(s.power * s.duration)
        assert s.edp == pytest.approx(s.energy * s.duration)
        assert s.n_tasks == math.ceil(5 * GB / (256 * MB))


class TestDynScaleScalar:
    def test_matches_dvfs_levels(self):
        from repro.hardware.node import ATOM_C2758

        for f in FREQS:
            point = ATOM_C2758.dvfs.point_for(f)
            assert _dyn_scale_scalar(ATOM_C2758, f) == point.dynamic_scale(
                ATOM_C2758.dvfs.max_point
            )

    def test_tolerance_matches_array_path(self):
        from repro.hardware.node import ATOM_C2758

        f = 2.4 * GHZ * (1.0 + 5e-4)  # inside the rtol=1e-3 window
        assert _dyn_scale_scalar(ATOM_C2758, f) == _dyn_scale_scalar(
            ATOM_C2758, 2.4 * GHZ
        )

    def test_rejects_non_dvfs_frequency(self):
        from repro.hardware.node import ATOM_C2758

        with pytest.raises(ValueError, match="non-DVFS"):
            _dyn_scale_scalar(ATOM_C2758, 3.1 * GHZ)


def _soa_context(profiles, mappers, node):
    """:func:`colocation_context_soa` on a one-row batch, per-job tuples."""
    k = len(profiles)
    lanes = ProfileSoA.from_profiles(profiles).take(np.arange(k)[None, :])
    mpki, disk, extra = colocation_context_soa(
        lanes, np.array([mappers], dtype=float), np.ones((1, k), dtype=bool),
        node=node,
    )
    return [
        (float(mpki[0, i]), float(disk[0, i]), float(extra[0, i]))
        for i in range(k)
    ]


class TestColocationContextScalar:
    def test_solo_neutral(self):
        p = get_app("wc").profile
        ctx = colocation_context_scalar([p], [4.0])
        assert len(ctx) == 1
        mpki, _disk, extra = ctx[0]
        assert (mpki, extra) == (1.0, 0.0)
        assert ctx == _soa_context([p], [4.0], ATOM_C2758)

    def test_randomized_sets_bit_identity(self):
        """1-7 co-resident jobs that fit the node, on atom and on xeon."""
        rng = np.random.default_rng(11)
        for node in (ATOM_C2758, XEON_E5):
            for _ in range(3000):
                k = int(rng.integers(1, 8))
                profiles = [
                    get_app(ALL_APPS[int(rng.integers(len(ALL_APPS)))]).profile
                    for _ in range(k)
                ]
                mappers = [
                    float(rng.integers(1, node.n_cores // k + 1)) for _ in range(k)
                ]
                scalar = colocation_context_scalar(profiles, mappers, node=node)
                assert scalar == _soa_context(profiles, mappers, node), (
                    f"{node.name}: {mappers}"
                )

    def test_validation_mirrors_array_path(self):
        p = get_app("wc").profile
        with pytest.raises(ValueError):
            colocation_context_scalar([], [])
        with pytest.raises(ValueError):
            colocation_context_scalar([p], [0.5])
        with pytest.raises(ValueError):
            colocation_context_scalar([p, p], [4.0])
