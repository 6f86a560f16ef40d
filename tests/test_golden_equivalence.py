"""Golden equivalence: seeded drivers reproduce pre-rewrite output.

``tests/golden/`` holds byte-exact copies of the ``results/*.txt``
files the experiment drivers produced *before* the engine fast-path
rewrite (scalar kernel, recontext cache, indexed event core).  The
rewrite claims bit-identical semantics, so the deterministic drivers
must render the very same bytes.

``fig8_overhead.txt`` contains wall-clock timings and can never be
byte-stable; for it only the structure (title, technique rows, column
layout) is pinned.
"""

from pathlib import Path

import pytest

from repro.experiments.artifacts import train_pipeline
from repro.experiments.fig5_priority import run_fig5
from repro.experiments.robustness import run_robustness
from repro.experiments.steady_state import run_steady_state

pytestmark = pytest.mark.golden

GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


class TestGoldenByteIdentity:
    def test_fig5_priority(self):
        assert run_fig5().render() + "\n" == _golden("fig5_priority")

    def test_steady_state(self):
        pipeline = train_pipeline()
        report = run_steady_state(pipeline.pair_stp("mlp"), pipeline.classifier)
        assert report.render() + "\n" == _golden("steady_state")
        # The rewrite's telemetry rides along without touching the
        # rendered artifact.
        assert set(report.telemetry) == {r.label for r in report.runs}
        for tel in report.telemetry.values():
            assert tel.events > 0

    def test_robustness(self):
        report = run_robustness(train_pipeline().pair_stp("reptree"))
        assert report.render() + "\n" == _golden("robustness")

    def test_fault_tolerance(self):
        from repro.experiments.fault_tolerance import run_fault_tolerance

        report = run_fault_tolerance()
        assert report.render() + "\n" == _golden("fault_tolerance")
        # The rate-0 rows ran with an *empty* injection plan — nothing
        # injected, nothing recovered — which is how the faults package
        # guarantees byte-identity with a healthy run.
        for (_policy, rate), trace in report.traces.items():
            if rate == 0.0:
                assert trace == ()
            else:
                assert trace


class TestFig8Structure:
    """fig8 reports wall-clock timings — structure-only equivalence."""

    @staticmethod
    def _skeleton(text: str) -> list[list[str]]:
        """Row/column layout with every numeric cell blanked."""
        rows = []
        for line in text.strip().splitlines():
            cells = [c.strip() for c in line.split("|")]
            rows.append(
                [
                    "<num>"
                    if c.replace(".", "", 1).replace("-", "", 1).isdigit()
                    else c
                    for c in cells
                ]
            )
        return rows

    def test_fig8_overhead(self):
        from repro.experiments.fig8_overhead import run_fig8

        report = run_fig8(rows_per_pair=60, predict_repeats=1)
        assert self._skeleton(report.render() + "\n") == self._skeleton(
            _golden("fig8_overhead")
        )
