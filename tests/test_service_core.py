"""Unit coverage of the service layers below the HTTP transport.

Config/env plumbing, the two clocks, the token bucket, per-tenant
accounting, edge validation of submission payloads, and the
``ClusterService`` ack/advance/drain lifecycle in virtual mode.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.mapreduce.engine import ClusterEngine
from repro.model.config import JobConfig
from repro.service import (
    ClusterService,
    REJECT_QUEUE_DEPTH,
    REJECT_RATE_LIMIT,
    RequestError,
    ServiceConfig,
    TokenBucket,
    VirtualClock,
    WallClock,
    make_clock,
    parse_request,
    seeded_requests,
    spec_to_request,
)
from repro.service.admission import AdmissionController, REJECT_CAPACITY
from repro.service.tenants import TenantRegistry, TenantState
from repro.telemetry.registry import service_registry
from repro.workloads.streams import poisson_job_stream

pytestmark = pytest.mark.service


# ------------------------------------------------------------------ config
class TestServiceConfig:
    def test_defaults_are_replayable(self):
        cfg = ServiceConfig()
        assert cfg.clock == "virtual"
        assert cfg.scheduler == "fifo"
        assert cfg.rate_per_s == float("inf")

    def test_env_overrides(self):
        env = {
            "REPRO_SERVICE_NODES": "4",
            "REPRO_SERVICE_SCHEDULER": "ecost",
            "REPRO_SERVICE_RATE": "2.5",
            "REPRO_SERVICE_MAX_INFLIGHT": "7",
        }
        cfg = ServiceConfig.from_env(env)
        assert cfg.n_nodes == 4
        assert cfg.scheduler == "ecost"
        assert cfg.rate_per_s == 2.5
        assert cfg.max_inflight == 7

    def test_explicit_overrides_beat_env(self):
        cfg = ServiceConfig.from_env({"REPRO_SERVICE_NODES": "4"}, n_nodes=2)
        assert cfg.n_nodes == 2

    def test_from_env_reads_process_environment(self):
        os.environ["REPRO_SERVICE_NODES"] = "3"
        assert ServiceConfig.from_env().n_nodes == 3

    def test_bad_env_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_SERVICE_NODES"):
            ServiceConfig.from_env({"REPRO_SERVICE_NODES": "many"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheduler": "lifo"},
            {"clock": "sundial"},
            {"n_nodes": 0},
            {"rate_per_s": 0.0},
            {"burst": 0.5},
            {"max_inflight": 0},
            {"max_pending": 0},
            {"time_scale": 0.0},
            {"pump_interval_s": 0.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_replace(self):
        assert ServiceConfig().replace(n_nodes=5).n_nodes == 5


# ------------------------------------------------------------------ clocks
class TestClocks:
    def test_virtual_clock_is_monotone_fold(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.observe(5.0) == 5.0
        assert clock.observe(3.0) == 5.0  # stale timestamps don't rewind
        assert clock.advance_to(9.0) == 9.0
        assert clock.deterministic

    def test_wall_clock_advances_and_scales(self):
        clock = WallClock(time_scale=1000.0)
        a = clock.now()
        b = clock.now()
        assert b >= a >= 0.0
        assert not clock.deterministic
        # observe() ignores external timestamps entirely
        assert clock.observe(10**9) == clock._floor

    def test_factory(self):
        assert isinstance(make_clock("virtual"), VirtualClock)
        assert isinstance(make_clock("wall"), WallClock)
        with pytest.raises(ValueError, match="sundial"):
            make_clock("sundial")


# ---------------------------------------------------------------- admission
class TestTokenBucket:
    def test_starts_full_and_refills(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(1.0)  # one token back after 1 s
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)

    def test_time_regress_raises(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)
        bucket.try_take(5.0)
        with pytest.raises(ValueError, match="backwards"):
            bucket.try_take(4.0)

    def test_infinite_rate_never_rejects(self):
        bucket = TokenBucket(rate_per_s=float("inf"), burst=1.0)
        assert all(bucket.try_take(0.0) for _ in range(100))


class TestAdmissionOrder:
    def _controller(self, **kw):
        defaults = dict(
            rate_per_s=float("inf"), burst=64.0, max_inflight=10**6,
            max_pending=10**6,
        )
        defaults.update(kw)
        return AdmissionController(**defaults)

    def test_capacity_checked_first(self):
        admission = self._controller(max_pending=1, max_inflight=1)
        tenants = TenantRegistry(admission)
        tenant = tenants.get("a")
        tenant.on_accept(0.0)
        decision = admission.decide(tenant, 0.0, total_inflight=1)
        assert decision.reason == REJECT_CAPACITY

    def test_queue_depth_before_rate(self):
        admission = self._controller(rate_per_s=0.001, burst=1.0, max_inflight=1)
        tenants = TenantRegistry(admission)
        tenant = tenants.get("a")
        assert admission.decide(tenant, 0.0, total_inflight=0).accepted
        tenant.on_accept(0.0)
        decision = admission.decide(tenant, 0.0, total_inflight=1)
        assert decision.reason == REJECT_QUEUE_DEPTH

    def test_rejection_does_not_burn_tokens(self):
        admission = self._controller(burst=1.0, rate_per_s=0.001, max_inflight=1)
        tenants = TenantRegistry(admission)
        tenant = tenants.get("a")
        tenant.on_accept(0.0)  # depth cap now binding; bucket still full
        for _ in range(5):
            assert (
                admission.decide(tenant, 0.0, total_inflight=0).reason
                == REJECT_QUEUE_DEPTH
            )
        tenant.on_complete()
        # The bucket was never consulted, so its single token survives.
        assert admission.decide(tenant, 0.0, total_inflight=0).accepted


# ------------------------------------------------------------------ tenants
class TestTenants:
    def test_accounting_roundtrip(self):
        registry = TenantRegistry(
            AdmissionController(
                rate_per_s=float("inf"), burst=64.0,
                max_inflight=10, max_pending=10,
            )
        )
        t = registry.get("alice")
        t.on_accept(1.0)
        t.on_accept(2.0)
        t.on_reject(REJECT_RATE_LIMIT, 3.0)
        t.on_complete()
        stats = registry.as_dict()["alice"]
        assert stats["accepted"] == 2
        assert stats["rejected"] == 1
        assert stats["inflight"] == 1
        assert stats["inflight_highwater"] == 2
        assert stats["rejections_by_reason"][REJECT_RATE_LIMIT] == 1
        assert registry.total_inflight == 1

    def test_complete_without_accept_raises(self):
        registry = TenantRegistry(
            AdmissionController(
                rate_per_s=float("inf"), burst=64.0,
                max_inflight=1, max_pending=1,
            )
        )
        with pytest.raises(RuntimeError):
            registry.get("a").on_complete()
        assert registry.total_inflight == 0

    def test_total_inflight_is_a_running_total(self, monkeypatch):
        """Over a seeded accept/complete/reject walk across 1,200
        tenants the total equals the tenants' sum after every step, and
        reading it reads no tenant's ``inflight``."""
        reads = 0

        def read_inflight(state):
            nonlocal reads
            reads += 1
            return state.__dict__["inflight"]

        def write_inflight(state, value):
            state.__dict__["inflight"] = value

        monkeypatch.setattr(
            TenantState, "inflight", property(read_inflight, write_inflight)
        )
        registry = TenantRegistry(
            AdmissionController(
                rate_per_s=float("inf"), burst=64.0,
                max_inflight=10**6, max_pending=10**6,
            )
        )
        names = [f"t{i}" for i in range(1200)]
        rng = np.random.default_rng(5)
        for step in range(2400):
            # The first pass meets every tenant once, in order.
            name = names[step] if step < len(names) else names[rng.integers(len(names))]
            tenant = registry.get(name)
            draw = rng.random()
            if draw < 0.1:
                tenant.on_reject(REJECT_RATE_LIMIT, float(step))
            elif draw < 0.5:
                if tenant.__dict__["inflight"]:
                    tenant.on_complete()
                else:
                    with pytest.raises(RuntimeError):
                        tenant.on_complete()
            else:
                tenant.on_accept(float(step))
            expected = sum(t.__dict__["inflight"] for t in registry)
            reads = 0
            assert registry.total_inflight == expected
            assert reads == 0
        assert len(registry) == len(names)
        assert 0 < registry.total_inflight


# ----------------------------------------------------------------- requests
class TestParseRequest:
    def test_minimal_payload_gets_tuned_knobs(self):
        req = parse_request(
            {"code": "wc", "data_bytes": 10**9}, default_time=4.0
        )
        assert req.tenant == "default"
        assert req.time == 4.0
        spec = req.build_spec()
        assert spec.instance.app.code == "wc"
        assert spec.config.n_mappers >= 1

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "JSON object"),
            ({"data_bytes": 1}, "'code'"),
            ({"code": "nope", "data_bytes": 1}, "nope"),
            ({"code": "wc"}, "data_bytes"),
            ({"code": "wc", "data_bytes": 0}, "data_bytes"),
            ({"code": "wc", "data_bytes": 1, "time": -1.0}, "time"),
            ({"code": "wc", "data_bytes": 1, "time": "soon"}, "time"),
            ({"code": "wc", "data_bytes": 1, "tenant": ""}, "tenant"),
            ({"code": "wc", "data_bytes": 1, "job_id": 1.5}, "job_id"),
            ({"code": "wc", "data_bytes": 1, "n_mappers": 99}, "n_mappers"),
        ],
    )
    def test_malformed_payloads(self, payload, match):
        with pytest.raises(RequestError, match=match):
            parse_request(payload, default_time=0.0)

    @pytest.mark.parametrize(
        "payload",
        [
            {"code": "wc", "data_bytes": 10**9},
            {"code": "st", "data_bytes": 10**9, "frequency": 1.2e9, "n_mappers": 3},
        ],
        ids=["tuned", "explicit"],
    )
    def test_spec_carries_the_validated_config(self, monkeypatch, payload):
        """One JobConfig per request: the spec's config is the object
        parse_request validated, not a rebuilt copy."""
        validated = []
        original = JobConfig.validate_for

        def recording(config, node):
            validated.append(config)
            return original(config, node)

        monkeypatch.setattr(JobConfig, "validate_for", recording)
        spec = parse_request(payload, default_time=0.0).build_spec()
        assert len(validated) == 1
        assert spec.config is validated[0]

    def test_time_required_without_default(self):
        with pytest.raises(RequestError, match="'time'"):
            parse_request({"code": "wc", "data_bytes": 1}, default_time=None)

    def test_spec_roundtrip(self):
        spec = next(iter(poisson_job_stream(1, seed=3, job_ids_from=7)))
        payload = spec_to_request(spec, "bob")
        req = parse_request(payload, default_time=None)
        rebuilt = req.build_spec()
        assert rebuilt.job_id == spec.job_id == 7
        assert rebuilt.submit_time == spec.submit_time
        assert rebuilt.config == spec.config
        assert rebuilt.instance.app.code == spec.instance.app.code
        assert rebuilt.instance.data_bytes == spec.instance.data_bytes

    def test_seeded_requests_cover_all_tenants(self):
        reqs = seeded_requests(60, seed=1, tenants=("a", "b", "c"))
        assert {r["tenant"] for r in reqs} == {"a", "b", "c"}
        assert [r["job_id"] for r in reqs] == list(range(1, 61))
        with pytest.raises(ValueError):
            seeded_requests(1, tenants=())


# ------------------------------------------------------------------- service
class TestClusterService:
    def test_ack_shapes(self):
        service = ClusterService(ServiceConfig(n_nodes=2))
        ok = service.submit_request(
            {"code": "wc", "data_bytes": 10**9, "time": 0.0}
        )
        assert ok == {
            "ok": True, "accepted": True, "job_id": ok["job_id"],
            "tenant": "default", "time": 0.0,
        }
        bad = service.submit_request(
            {"code": "nope", "data_bytes": 1, "time": 1.0}
        )
        assert bad["ok"] is False and "nope" in bad["error"]
        assert service.telemetry.malformed == 1
        service.drain()

    def test_virtual_mode_requires_monotone_time(self):
        service = ClusterService(ServiceConfig())
        service.submit_request({"code": "wc", "data_bytes": 10**9, "time": 10.0})
        ack = service.submit_request({"code": "wc", "data_bytes": 10**9, "time": 5.0})
        assert ack["ok"] is False and "monotone" in ack["error"]
        service.drain()

    @pytest.mark.parametrize("catch_up", ["drain", "advance_to"])
    def test_arrival_behind_the_engine_clock_is_refused(self, catch_up):
        # Both leave the engine clock past t=5 (the job ends near 99 s)
        # while the stream's last arrival stays at 0.
        service = ClusterService(ServiceConfig(n_nodes=2))
        service.submit_request({"code": "wc", "data_bytes": 10**9, "time": 0.0})
        if catch_up == "drain":
            service.drain()
        else:
            service.advance_to(50_000.0)
        tenant = service.tenants.get("default")
        ack = service.submit_request({"code": "wc", "data_bytes": 10**9, "time": 5.0})
        assert ack["ok"] is False and "engine clock" in ack["error"]
        assert tenant.submitted == 1  # refused before admission: no token
        assert service.telemetry.malformed == 1
        assert service.drain()["completed"] == 1

    def test_wall_mode_arrival_after_a_drain_completes(self):
        # The drain runs the engine far past the scaled wall clock; the
        # next arrival is stamped at the engine clock, not behind it.
        service = ClusterService(ServiceConfig(clock="wall"))
        assert service.submit_request({"code": "wc", "data_bytes": 10**9})["accepted"]
        service.drain()
        ack = service.submit_request({"code": "wc", "data_bytes": 10**9})
        assert ack["accepted"] and ack["time"] == service.cluster.now
        assert service.drain()["completed"] == 2

    def test_virtual_mode_requires_explicit_time(self):
        service = ClusterService(ServiceConfig())
        ack = service.submit_request({"code": "wc", "data_bytes": 10**9})
        assert ack["ok"] is False and "time" in ack["error"]

    def test_drain_conservation_and_reuse(self):
        service = ClusterService(ServiceConfig(n_nodes=2))
        for req in seeded_requests(20, seed=2):
            assert service.submit_request(req)["accepted"]
        summary = service.drain()
        assert summary["completed"] == summary["accepted"] == 20
        assert summary["inflight"] == 0
        # The service stays usable: later arrivals continue the run.
        later = service.cluster.now + 1.0
        assert service.submit_request(
            {"code": "km", "data_bytes": 10**9, "time": later}
        )["accepted"]
        assert service.drain()["completed"] == 21

    def test_advance_reflects_completions_in_admission(self):
        # One job, then a request far in the future: by then the first
        # completed, so a max_inflight=1 tenant is admitted again.
        service = ClusterService(ServiceConfig(n_nodes=1, max_inflight=1))
        assert service.submit_request(
            {"code": "wc", "data_bytes": 10**9, "time": 0.0}
        )["accepted"]
        rejected = service.submit_request(
            {"code": "wc", "data_bytes": 10**9, "time": 0.5}
        )
        assert rejected["accepted"] is False
        assert rejected["reason"] == REJECT_QUEUE_DEPTH
        accepted = service.submit_request(
            {"code": "wc", "data_bytes": 10**9, "time": 10_000.0}
        )
        assert accepted["accepted"] is True
        service.drain()

    def test_advance_to_only_in_virtual_mode(self):
        service = ClusterService(ServiceConfig(clock="wall"))
        with pytest.raises(RuntimeError, match="virtual"):
            service.advance_to(1.0)

    def test_wall_mode_pump_dispatches(self):
        service = ClusterService(ServiceConfig(clock="wall", time_scale=1e6))
        ack = service.submit_request({"code": "wc", "data_bytes": 10**9})
        assert ack["accepted"]
        assert len(service._ingest) == 1
        assert service.pump() == 1
        assert service.pump() == 0
        summary = service.drain()
        assert summary["completed"] == 1

    def test_injected_cluster_is_used(self):
        cluster = ClusterEngine(3)
        service = ClusterService(ServiceConfig(n_nodes=8), cluster=cluster)
        assert service.cluster is cluster
        assert len(service.cluster.nodes) == 3

    def test_metrics_snapshot_namespaces(self):
        service = ClusterService(ServiceConfig(n_nodes=2))
        for req in seeded_requests(10, seed=9):
            service.submit_request(req)
        service.drain()
        snap = service.metrics_snapshot()
        assert set(snap) == {"engine", "service", "tenants"}
        assert snap["service"]["completed"] == 10
        assert snap["service"]["accept_rate"] == 1.0
        tenant_keys = set(snap["tenants"])
        assert any(key.endswith("_accepted") for key in tenant_keys)
        # The registry is re-polled live, not a frozen copy.
        registry = service_registry(service)
        flat = registry.flatten(registry.snapshot())
        assert flat["service.completed"] == 10

    def test_trace_payload_empty_when_tracer_off(self):
        service = ClusterService(ServiceConfig())
        assert service.trace_payload() == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }
