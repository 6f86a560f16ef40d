"""Smoke tests: every example script runs clean end to end.

The fast examples are subprocessed here exactly as a user would run
them.  The heavyweight datacenter example (it builds the full offline
pipeline, about 30 s cold) runs in no test: CI's full lane runs it as
its own step against the warm artifact cache.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

_FAST_EXAMPLES = [
    "quickstart.py",
    "colocation_study.py",
    "characterize_app.py",
    "iterative_analytics.py",
]


@pytest.mark.parametrize("script", _FAST_EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_quickstart_shows_tuning_win():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "tuned" in proc.stdout
    assert "EDP" in proc.stdout


def test_colocation_study_orders_classes():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "colocation_study.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    out = proc.stdout
    # I-I row shows a bigger gain than M-M.
    assert "I-I" in out and "M-M" in out
