"""Memory-bandwidth model tests."""

import pytest

from repro.hardware.memorybw import MemoryBandwidthModel


def test_constructor_validation():
    with pytest.raises(ValueError):
        MemoryBandwidthModel(achievable_bw=0)
