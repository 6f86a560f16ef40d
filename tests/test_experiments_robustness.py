"""Robustness-extension module tests (small scope, fast)."""

import pytest

from repro.core.stp import LkTSTP
from repro.experiments.robustness import run_robustness


@pytest.fixture(scope="module")
def report(small_database):
    return run_robustness(
        LkTSTP(small_database),
        noise_scales=(1.0, 8.0),
        misclassify_probs=(0.0, 1.0),
        max_pairs=6,
        seed=1,
    )


def test_all_conditions_measured(report):
    assert set(report.conditions) == {
        "counter noise x1",
        "counter noise x8",
        "misclassify p=0",
        "misclassify p=1",
    }
    assert report.n_pairs == 6


def test_errors_nonnegative(report):
    assert all(v >= -1e-9 for v in report.mean_error.values())


def test_noise_bounded_for_lkt(report):
    """LkT keys on class+size, so pure counter noise cannot move it."""
    assert report.mean_error["counter noise x8"] == pytest.approx(
        report.mean_error["counter noise x1"], abs=1e-9
    )


def test_misclassification_matters(report):
    assert (
        report.mean_error["misclassify p=1"]
        >= report.mean_error["misclassify p=0"]
    )


def test_render(report):
    text = report.render()
    assert "Robustness" in text and "noise" in text
