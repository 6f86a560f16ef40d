"""Unit tests of the sensitivity and steady-state extension modules."""

import pytest

from repro.core.stp import LkTSTP
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.steady_state import _poisson_workload, run_steady_state
from repro.utils.units import GB


class TestSensitivity:
    @pytest.fixture(scope="class")
    def report(self):
        # One field, one delta: fast unit-level coverage; the full
        # sweep lives in benchmarks/test_sensitivity.py.
        import repro.experiments.sensitivity as mod

        old = mod.PERTURBED_FIELDS
        mod.PERTURBED_FIELDS = ("task_overhead_s",)
        try:
            return run_sensitivity(deltas=(0.5,), data_bytes=1 * GB)
        finally:
            mod.PERTURBED_FIELDS = old

    def test_baseline_first(self, report):
        assert report.checks[0].label == "baseline"
        assert report.checks[0].holds

    def test_perturbed_labelled(self, report):
        assert report.checks[1].label.startswith("task_overhead_s")

    def test_render(self, report):
        assert "sensitivity" in report.render().lower()


class TestPoissonWorkload:
    def test_deterministic_and_ordered(self):
        a = _poisson_workload(10, 30.0, seed=5)
        b = _poisson_workload(10, 30.0, seed=5)
        assert [(t, i.label) for t, i in a] == [(t, i.label) for t, i in b]
        times = [t for t, _ in a]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mean_interarrival_roughly_respected(self):
        jobs = _poisson_workload(200, 30.0, seed=0)
        mean = jobs[-1][0] / len(jobs)
        assert 20.0 < mean < 45.0


class TestSteadyStateSmall:
    def test_runs_with_lkt_backend(self, small_database):
        report = run_steady_state(
            LkTSTP(small_database),
            _TrueClassClassifier(),
            n_jobs=8,
            mean_interarrival_s=40.0,
            n_nodes=2,
            seed=3,
        )
        ecost, fifo = report.runs
        assert ecost.n_jobs == fifo.n_jobs == 8
        assert ecost.makespan > 0
        assert "Poisson" in report.render()


class _TrueClassClassifier:
    """Stub classifier: threshold rules (no trained centroids needed)."""

    def classify(self, features):
        from repro.analysis.classify import RuleBasedClassifier

        return RuleBasedClassifier().classify(features)
