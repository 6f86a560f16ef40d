"""Core timing-model tests: the memory wall must behave."""

import numpy as np
import pytest

from repro.hardware.cpu import CoreModel
from repro.utils.units import GHZ


@pytest.fixture
def core():
    return CoreModel()


def test_spi_decreases_with_frequency_but_not_linearly(core):
    spi_low = core.seconds_per_instruction(1.2 * GHZ, 1.0, 5.0)
    spi_high = core.seconds_per_instruction(2.4 * GHZ, 1.0, 5.0)
    assert spi_high < spi_low
    # Memory stalls don't scale: doubling f must give < 2x speedup.
    assert spi_low / spi_high < 2.0


def test_zero_mpki_scales_linearly_with_frequency(core):
    spi_low = core.seconds_per_instruction(1.2 * GHZ, 1.0, 0.0)
    spi_high = core.seconds_per_instruction(2.4 * GHZ, 1.0, 0.0)
    assert spi_low / spi_high == pytest.approx(2.0)


def test_effective_ipc_at_most_core_ipc(core):
    ipc = core.effective_ipc(2.4 * GHZ, 1.0 / 1.1, 3.0)
    assert ipc < 1.1
    ipc_clean = core.effective_ipc(2.4 * GHZ, 1.0 / 1.1, 0.0)
    assert ipc_clean == pytest.approx(1.1)


def test_effective_ipc_drops_at_high_frequency_when_miss_heavy(core):
    lo = core.effective_ipc(1.2 * GHZ, 1.0, 8.0)
    hi = core.effective_ipc(2.4 * GHZ, 1.0, 8.0)
    assert hi < lo


def test_stall_fraction_bounds_and_monotonicity(core):
    f = core.stall_fraction(2.4 * GHZ, 1.0, np.array([0.0, 1.0, 5.0, 20.0]))
    assert f[0] == 0.0
    assert np.all(np.diff(f) > 0)
    assert np.all(f < 1.0)


def test_broadcasting_over_frequency_grid(core):
    freqs = np.array([1.2, 1.6, 2.0, 2.4]) * GHZ
    spi = core.seconds_per_instruction(freqs, 1.0, 2.0)
    assert spi.shape == (4,)
    assert np.all(np.diff(spi) < 0)


def test_invalid_inputs(core):
    with pytest.raises(ValueError):
        core.seconds_per_instruction(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CoreModel(mem_latency_s=-1e-9)
    with pytest.raises(ValueError):
        CoreModel(mlp_overlap=1.5)
