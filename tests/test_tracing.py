"""Tracing layer tests: exporter schema, zero perturbation, span content."""

import json

import pytest

from repro.experiments.trace_run import TRACE_EXPERIMENTS, run_traced
from repro.telemetry.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)


class TestTracer:
    def test_span_rejects_negative_duration(self):
        t = Tracer()
        with pytest.raises(ValueError, match="ends before"):
            t.span("x", "job", 5.0, 4.0)

    def test_event_counts(self):
        t = Tracer()
        t.span("a", "job", 0.0, 1.0)
        t.instant("b", "fault", 0.5)
        t.counter("c", 0.2, {"n": 1})
        assert t.n_events == 3

    def test_spans_by_cat_sorted(self):
        t = Tracer()
        t.span("late", "job", 5.0, 6.0)
        t.span("early", "job", 1.0, 2.0)
        t.span("other", "phase", 0.0, 1.0)
        got = t.spans_by_cat("job")
        assert [s.name for s in got] == ["early", "late"]

    def test_chrome_export_valid_and_scaled(self):
        t = Tracer()
        t.name_process(0, "cluster")
        t.name_thread(1, 7, "job 7")
        t.span("j", "job", 1.0, 3.0, pid=1, tid=7, args={"energy": 2.5})
        t.instant("f", "fault", 2.0)
        t.counter("pending", 0.0, {"count": 4})
        payload = t.to_chrome()
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        # Metadata first, then timed events in timestamp order.
        assert [e["ph"] for e in events[:2]] == ["M", "M"]
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(1e6)
        assert span["dur"] == pytest.approx(2e6)

    def test_write_round_trips(self, tmp_path):
        t = Tracer()
        t.span("j", "job", 0.0, 1.0)
        path = t.write(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestNullTracer:
    def test_disabled_and_inert(self):
        nt = NullTracer()
        assert nt.enabled is False
        nt.span("x", "job", 0.0, 1.0)
        nt.instant("x", "fault", 0.0)
        nt.counter("x", 0.0, {})
        nt.name_process(0, "x")
        nt.name_thread(0, 0, "x")
        assert nt.n_events == 0

    def test_shared_singleton_is_default(self):
        from repro.mapreduce.engine import ClusterEngine, NodeEngine

        assert NodeEngine().tracer is NULL_TRACER
        assert ClusterEngine(1).tracer is NULL_TRACER

    def test_no_slots_no_allocation_surface(self):
        with pytest.raises(AttributeError):
            NullTracer().stash = 1  # __slots__ = (): nothing to grow


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"nope": 1}) != []

    def test_rejects_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 0},
                {"ph": "X", "name": "x", "pid": 0, "ts": -1.0, "dur": 1.0},
                {"ph": "i", "name": "x", "pid": 0, "ts": 0.0, "s": "q"},
                {"ph": "C", "name": "x", "pid": 0, "ts": 0.0},
                {"ph": "X", "name": 3, "pid": 0, "ts": 0.0, "dur": 0.0},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 5


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def faulty(self):
        return run_traced("faulty", n_jobs=24)

    def test_tracing_does_not_perturb_seeded_run(self):
        on = run_traced("steady", n_jobs=24)
        off = run_traced("steady", n_jobs=24, tracer=NULL_TRACER)
        key = lambda run: [
            (r.spec.job_id, r.node_id, r.start_time, r.finish_time, r.energy_joules)
            for r in run.results
        ]
        assert key(on) == key(off)
        assert on.makespan == off.makespan
        assert on.energy_joules == off.energy_joules
        assert off.tracer.n_events == 0

    def test_fault_run_not_perturbed_either(self, faulty):
        off = run_traced("faulty", n_jobs=24, tracer=NULL_TRACER)
        assert [r.finish_time for r in faulty.results] == [
            r.finish_time for r in off.results
        ]
        assert faulty.energy_joules == off.energy_joules

    def test_job_spans_cover_every_completion(self, faulty):
        jobs = faulty.tracer.spans_by_cat("job")
        assert len(jobs) == len(faulty.results)
        by_id = {r.spec.job_id: r for r in faulty.results}
        for s in jobs:
            r = by_id[s.args["job_id"]]
            assert s.start == r.start_time and s.end == r.finish_time
            assert s.pid == 1 + r.node_id
            assert s.args["energy_joules"] == r.energy_joules

    def test_phase_spans_nest_inside_their_job(self, faulty):
        jobs = {(s.pid, s.tid): s for s in faulty.tracer.spans_by_cat("job")}
        phases = faulty.tracer.spans_by_cat("phase")
        assert phases, "derived wave/shuffle phases missing"
        eps = 1e-6
        for p in phases:
            owner = jobs[(p.pid, p.tid)]
            assert p.start >= owner.start - eps
            assert p.end <= owner.end + eps

    def test_fault_and_recovery_events_present(self, faulty):
        cats = {s.cat for s in faulty.tracer.spans}
        cats |= {i.cat for i in faulty.tracer.instants}
        assert "fault" in cats
        assert "recovery" in cats
        assert any(c.name == "pending jobs" for c in faulty.tracer.counters)

    def test_export_is_valid_chrome_trace(self, faulty, tmp_path):
        path = faulty.tracer.write(tmp_path / "faulty.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown trace experiment"):
            run_traced("nope")

    def test_experiment_list_stable(self):
        assert TRACE_EXPERIMENTS == ("steady", "faulty", "ecost")


class TestCli:
    def test_trace_command_writes_valid_files(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "trace",
                "steady",
                "--jobs",
                "12",
                "--out",
                str(out),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        flat = json.loads(metrics.read_text())
        assert any(k.startswith("engine.") for k in flat)
        assert "wrote" in capsys.readouterr().out
