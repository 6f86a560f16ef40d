"""14-feature profiling-vector tests."""

import pytest

from repro.analysis.features import PROFILING_CONFIG
from repro.telemetry.profiling import (
    FEATURE_NAMES,
    REDUCED_FEATURE_NAMES,
    feature_vector,
    profile_features,
    reduced_vector,
)
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


def test_fourteen_features_in_canonical_order():
    assert len(FEATURE_NAMES) == 14
    feats = profile_features(AppInstance(get_app("wc"), 5 * GB), PROFILING_CONFIG)
    assert set(feats) == set(FEATURE_NAMES)


def test_reduced_set_is_the_papers_seven():
    assert set(REDUCED_FEATURE_NAMES) == {
        "cpu_user", "cpu_iowait", "io_read_mbps", "io_write_mbps",
        "ipc", "mem_footprint_mb", "llc_mpki",
    }


def test_deterministic_for_seed():
    inst = AppInstance(get_app("st"), 5 * GB)
    a = profile_features(inst, PROFILING_CONFIG, seed=1)
    b = profile_features(inst, PROFILING_CONFIG, seed=1)
    assert a == b
    c = profile_features(inst, PROFILING_CONFIG, seed=2)
    assert a != c


def test_feature_vector_ordering():
    feats = profile_features(AppInstance(get_app("fp"), 5 * GB), PROFILING_CONFIG)
    vec = feature_vector(feats)
    assert vec.shape == (14,)
    assert vec[FEATURE_NAMES.index("llc_mpki")] == feats["llc_mpki"]


def test_reduced_vector_ordering():
    feats = profile_features(AppInstance(get_app("fp"), 5 * GB), PROFILING_CONFIG)
    vec = reduced_vector(feats)
    assert vec.shape == (7,)
    assert vec[REDUCED_FEATURE_NAMES.index("ipc")] == feats["ipc"]


def test_missing_feature_rejected():
    with pytest.raises(KeyError, match="missing"):
        feature_vector({"cpu_user": 1.0})
    with pytest.raises(KeyError, match="missing"):
        reduced_vector({"cpu_user": 1.0})


def test_class_signatures_separate_in_feature_space():
    """C/I/M apps must be far apart — classification depends on it."""
    feats = {
        code: feature_vector(
            profile_features(AppInstance(get_app(code), 5 * GB), PROFILING_CONFIG)
        )
        for code in ("wc", "st", "fp")
    }
    # I/O app: much higher iowait than compute app.
    iowait = FEATURE_NAMES.index("cpu_iowait")
    assert feats["st"][iowait] > 5 * feats["wc"][iowait]
    # Memory app: much higher LLC MPKI than both.
    llc = FEATURE_NAMES.index("llc_mpki")
    assert feats["fp"][llc] > 3 * feats["wc"][llc]
    assert feats["fp"][llc] > 3 * feats["st"][llc]
