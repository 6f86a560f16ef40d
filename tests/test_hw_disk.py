"""Disk model tests: sequential efficiency and stream interleaving."""

import numpy as np
import pytest

from repro.hardware.disk import DiskModel
from repro.utils.units import MB


@pytest.fixture
def disk():
    return DiskModel()


def test_sequential_efficiency_monotone_in_extent(disk):
    extents = np.array([1, 16, 64, 256, 1024]) * MB
    eff = disk.sequential_efficiency(extents)
    assert np.all(np.diff(eff) > 0)
    assert np.all(eff < 1.0)


def test_sequential_efficiency_half_point(disk):
    assert float(disk.sequential_efficiency(disk.half_extent)) == pytest.approx(0.5)


def test_aggregate_bw_degrades_with_streams(disk):
    bw = disk.aggregate_bw(np.array([1, 2, 4, 8]), 256 * MB)
    assert np.all(np.diff(bw) < 0)


def test_aggregate_bw_zero_streams(disk):
    assert float(disk.aggregate_bw(0, 256 * MB)) == 0.0


def test_aggregate_bw_never_exceeds_peak(disk):
    assert float(disk.aggregate_bw(1, 10_000 * MB)) < disk.peak_bw


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiskModel(peak_bw=0)
    with pytest.raises(ValueError):
        DiskModel(seek_penalty=1.5)
