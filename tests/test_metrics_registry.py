"""MetricsRegistry tests: snapshot/delta/flatten and the cluster wiring."""

import json

import pytest

from repro.telemetry.counters import EngineTelemetry
from repro.telemetry.registry import MetricsRegistry, cluster_registry


class TestRegistryBasics:
    def test_snapshot_groups_by_namespace(self):
        reg = MetricsRegistry()
        reg.register("a", lambda: {"x": 1, "y": 2.5})
        reg.register("b", lambda: {"z": 0})
        assert reg.snapshot() == {"a": {"x": 1, "y": 2.5}, "b": {"z": 0}}
        assert reg.namespaces == ["a", "b"]

    def test_sources_repolled_each_snapshot(self):
        counter = {"n": 0}

        def source():
            counter["n"] += 1
            return {"n": counter["n"]}

        reg = MetricsRegistry().register("c", source)
        assert reg.snapshot()["c"]["n"] == 1
        assert reg.snapshot()["c"]["n"] == 2

    def test_non_numeric_and_bool_values_dropped(self):
        reg = MetricsRegistry().register(
            "a", lambda: {"ok": 1, "label": "x", "flag": True, "none": None}
        )
        assert reg.snapshot() == {"a": {"ok": 1}}

    def test_as_dict_objects_accepted(self):
        reg = MetricsRegistry().register("engine", EngineTelemetry())
        assert reg.snapshot()["engine"]["events"] == 0

    def test_bad_namespace_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.register("", lambda: {})
        with pytest.raises(ValueError):
            reg.register("a.b", lambda: {})

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError, match="as_dict"):
            MetricsRegistry().register("a", object())

    def test_reregister_replaces(self):
        reg = MetricsRegistry()
        reg.register("a", lambda: {"v": 1})
        reg.register("a", lambda: {"v": 9})
        assert reg.snapshot() == {"a": {"v": 9}}


class TestDeltaAndFlatten:
    def test_delta_subtracts_per_metric(self):
        before = {"a": {"x": 3, "y": 1.0}}
        after = {"a": {"x": 10, "y": 1.5, "new": 2}, "b": {"z": 4}}
        assert MetricsRegistry.delta(before, after) == {
            "a": {"x": 7, "y": 0.5, "new": 2},
            "b": {"z": 4},
        }

    def test_flatten_sorted_dotted_keys(self):
        flat = MetricsRegistry.flatten({"b": {"y": 2}, "a": {"x": 1}})
        assert list(flat) == ["a.x", "b.y"]

    def test_to_json_writes_flat_file(self, tmp_path):
        reg = MetricsRegistry().register("a", lambda: {"x": 1})
        path = tmp_path / "metrics.json"
        flat = reg.to_json(path)
        assert flat == {"a.x": 1}
        assert json.loads(path.read_text()) == {"a.x": 1}

    def test_render_lists_namespaces(self):
        reg = MetricsRegistry().register("ns", lambda: {"metric": 1.25})
        text = reg.render()
        assert "ns:" in text and "metric = 1.25" in text


class TestTelemetryAsDict:
    def test_engine_counters_complete(self):
        tel = EngineTelemetry()
        tel.record_event()
        tel.record_recontext(hit=True, jobs=2)
        tel.record_recontext(hit=False)
        tel.record_fault("task_fail")
        d = tel.as_dict()
        assert d["events"] == 1
        assert d["recontext_hits"] == 2
        assert d["faults_injected"] == 1
        assert d["recontext_hit_rate"] == pytest.approx(2 / 3)


class TestClusterRegistry:
    def test_wires_engine_and_cache(self):
        from repro.mapreduce.engine import ClusterEngine
        from repro.workloads.streams import poisson_job_stream

        cluster = ClusterEngine(2, recorder="off")
        for s in poisson_job_stream(10, tuned=True, job_ids_from=1):
            cluster.submit(s)
        cluster.run()
        reg = cluster_registry(cluster)
        snap = reg.snapshot()
        assert snap["engine"]["events"] > 0
        assert set(snap["artifact_cache"]) == {"hits", "misses", "corrupt", "stale"}
        # Live telemetry: a second run on the same cache moves the delta.
        before = snap
        cluster2 = ClusterEngine(
            2, recorder="off", metrics_cache=cluster.metrics_cache
        )
        for s in poisson_job_stream(10, tuned=True, job_ids_from=100):
            cluster2.submit(s)
        cluster2.run()
        delta = MetricsRegistry.delta(before, reg.snapshot())
        assert delta["engine"]["events"] > 0
