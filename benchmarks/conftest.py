"""Benchmark fixtures: results directory and shared artifacts.

Every benchmark regenerates one of the paper's tables/figures, writes
the rendered text to ``results/`` and asserts the reproduction's shape
targets.  Run with::

    pytest benchmarks/ --benchmark-only

The first run builds and disk-caches the heavyweight artifacts
(sweeps, fitted models); later runs reuse them.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parents[1] / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def save(results_dir):
    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def small_dataset():
    """The reduced pipeline's training dataset (artifact-cached), for
    model micro-benchmarks."""
    from repro.online.scenario import reduced_pipeline

    return reduced_pipeline().dataset
