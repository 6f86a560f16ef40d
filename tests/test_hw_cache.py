"""Shared-cache contention model tests."""

import numpy as np
import pytest

from repro.hardware.cache import SharedCacheModel


@pytest.fixture
def cache():
    return SharedCacheModel()


def test_mpki_inflation_full_share_is_one(cache):
    assert float(cache.mpki_inflation(1.0, 0.5)) == pytest.approx(1.0)


def test_mpki_inflation_monotone_in_lost_capacity(cache):
    shares = np.array([0.8, 0.5, 0.2, 0.1])
    infl = cache.mpki_inflation(shares, 0.5)
    assert np.all(np.diff(infl) > 0)


def test_mpki_inflation_clamped(cache):
    assert float(cache.mpki_inflation(0.01, 2.0)) == pytest.approx(cache.max_inflation)


def test_mpki_inflation_zero_alpha_insensitive(cache):
    assert float(cache.mpki_inflation(0.1, 0.0)) == pytest.approx(1.0)


def test_mpki_inflation_invalid_share(cache):
    with pytest.raises(ValueError):
        cache.mpki_inflation(0.0, 0.5)
    with pytest.raises(ValueError):
        cache.mpki_inflation(1.5, 0.5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SharedCacheModel(capacity_bytes=0)
    with pytest.raises(ValueError):
        SharedCacheModel(max_inflation=0.5)
