"""The transport-agnostic service core: admit → queue → dispatch → advance.

:class:`ClusterService` is the always-on front end over one
:class:`~repro.mapreduce.engine.ClusterEngine`.  Requests are acked
immediately (accepted/rejected + reason); accepted jobs flow through
per-tenant accounting into the engine, which advances as a
*continuously progressing* simulation rather than a batch run.

Determinism contract (virtual-clock mode)
-----------------------------------------
With ``clock="virtual"`` the whole service is a pure function of its
request sequence: arrival timestamps come from the requests, admission
is a deterministic token-bucket/depth decision, and the engine is
advanced with the exact event ordering the offline batch run uses
(:meth:`ClusterEngine.inject_arrival` — events strictly before an
arrival first, the arrival ahead of same-timestamp derived events).
Feeding the accepted job list to an offline engine therefore
reproduces the service's results *bit for bit* — energy, makespan, and
placement sequence — which ``tests/test_service_soak.py`` pins at
50k-job scale.

Wall-clock mode trades that replayability for liveness: arrivals are
stamped with scaled wall time, accepted jobs buffer in tenant queues,
and a background pump (driven by the asyncio server) dispatches and
advances the engine to "now" between requests.

Scheduling
----------
``scheduler="fifo"`` runs the engine's first-fit FIFO placement on
fully-specified job requests.  ``scheduler="ecost"`` installs a live
:class:`~repro.core.controller.ECoSTController`: each arrival is
classified, queued, paired by class priority, and self-tuned on
arrival — the paper's online loop under sustained traffic.  The
controller is injected (or built lazily from the cached artifacts) and
its ``on_cluster_change``/blacklist seams stay available to the fault
layer exactly as in batch runs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobSpec
from repro.service.admission import AdmissionController
from repro.service.clock import make_clock
from repro.service.config import ServiceConfig
from repro.service.requests import JobRequest, RequestError, parse_request
from repro.service.tenants import TenantRegistry
from repro.telemetry.counters import ServiceTelemetry
from repro.telemetry.registry import MetricsRegistry, service_registry
from repro.telemetry.tracing import NULL_TRACER


class ClusterService:
    """Streaming ingestion front end over one cluster engine.

    Parameters
    ----------
    config:
        The deployment description (nodes, scheduler, clock, admission
        limits).  ``ServiceConfig.from_env()`` reads the
        ``REPRO_SERVICE_*`` knobs.
    cluster:
        Optional pre-built engine (tests inject traced or recorded
        engines); defaults to a fresh one per the config.
    controller_factory:
        ``scheduler="ecost"`` only: a callable ``(cluster) ->
        ECoSTController``.  Defaults to building the full pipeline from
        the cached STP/classifier artifacts on first use.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        cluster: ClusterEngine | None = None,
        controller_factory: Callable | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = make_clock(self.config.clock, time_scale=self.config.time_scale)
        self.tracer = tracer
        self.cluster = (
            cluster
            if cluster is not None
            else ClusterEngine(
                self.config.n_nodes,
                recorder=self.config.recorder,
                tracer=tracer,
            )
        )
        self.admission = AdmissionController(
            rate_per_s=self.config.rate_per_s,
            burst=self.config.burst,
            max_inflight=self.config.max_inflight,
            max_pending=self.config.max_pending,
        )
        self.tenants = TenantRegistry(self.admission)
        self.telemetry = ServiceTelemetry()
        self.controller = None
        if self.config.scheduler == "ecost":
            factory = controller_factory or _default_controller_factory
            self.controller = factory(self.cluster)
        #: Accepted-but-not-dispatched jobs in global arrival order —
        #: dispatch preserves this order so the engine sees exactly the
        #: sequence an offline run would (per-tenant fairness is
        #: admission's job, not reordering's).
        self._ingest: deque[tuple[str, JobSpec]] = deque()
        #: Live job ownership, keyed by ``id(spec.instance)``: the
        #: AppInstance object is created fresh per accepted request and
        #: flows *unchanged* through both placement paths (the fifo
        #: engine keeps the spec; the ECoST controller re-specs the job
        #: with self-tuned knobs and a fresh job_id but reuses the
        #: instance), so object identity is the one stable join key.
        self._owner: dict[int, str] = {}
        self._harvested = 0  # prefix of cluster.results already credited
        self._last_arrival = 0.0
        #: Virtual mode advances the engine synchronously per request;
        #: wall mode leaves that to the background pump.
        self._auto_advance = self.config.clock == "virtual"

    # --------------------------------------------------------- ingestion
    def submit_request(self, payload: dict) -> dict:
        """Admit one submission request; returns the ack dict.

        Acks are terminal: ``{"ok": False, "error": ...}`` for a
        malformed payload, ``{"ok": True, "accepted": False, "reason":
        ...}`` for an admission rejection, and ``{"ok": True,
        "accepted": True, "job_id": ..., "tenant": ..., "time": ...}``
        for an accepted job.  Accepted jobs are never dropped — the
        conservation law the soak suite asserts.
        """
        self.telemetry.record_request()
        default_time = None if self._auto_advance else self.clock.now()
        try:
            req = parse_request(
                payload,
                default_tenant=self.config.default_tenant,
                default_time=default_time,
            )
            if self._auto_advance and req.time + 1e-9 < self._last_arrival:
                raise RequestError(
                    f"arrival time {req.time} precedes the stream's last "
                    f"arrival {self._last_arrival} (virtual time is monotone)"
                )
            if self._auto_advance and req.time < self.cluster.now - 1e-9:
                # A drain or an advance ran the engine past this time.
                raise RequestError(
                    f"arrival time {req.time} precedes the engine clock "
                    f"{self.cluster.now} (virtual time is monotone)"
                )
        except RequestError as exc:
            self.telemetry.record_malformed()
            return {"ok": False, "error": str(exc)}
        if not self._auto_advance:
            # Wall mode: the service stamps arrivals itself, never
            # behind an engine a drain has run ahead of the wall clock.
            req = JobRequest(
                tenant=req.tenant,
                time=max(self.clock.now(), self._last_arrival, self.cluster.now),
                code=req.code,
                data_bytes=req.data_bytes,
                frequency=req.frequency,
                block_size=req.block_size,
                n_mappers=req.n_mappers,
                job_id=req.job_id,
            )
        t = req.time
        self._last_arrival = max(self._last_arrival, t)
        self.clock.observe(t)
        if self._auto_advance:
            # Reflect every completion up to (strictly before) this
            # arrival in the admission state, exactly as a live engine
            # would have by the time the request lands.
            self._advance_engine(t)
        tenant = self.tenants.get(req.tenant)
        tenant.submitted += 1
        decision = self.admission.decide(
            tenant, t, total_inflight=self.tenants.total_inflight
        )
        if not decision.accepted:
            assert decision.reason is not None
            tenant.on_reject(decision.reason, t)
            self.telemetry.record_reject(decision.reason)
            return {"ok": True, "accepted": False, "reason": decision.reason}
        spec = req.build_spec()
        tenant.on_accept(t)
        self.telemetry.record_accept()
        self._owner[id(spec.instance)] = tenant.name
        if self._auto_advance:
            self.cluster_submit(spec)
            self.telemetry.record_dispatch()
        else:
            tenant.queue.append(spec)
            self._ingest.append((tenant.name, spec))
        return {
            "ok": True,
            "accepted": True,
            "job_id": spec.job_id,
            "tenant": tenant.name,
            "time": t,
        }

    def cluster_submit(self, spec: JobSpec) -> None:
        """Deliver one accepted job to the engine at its submit time."""
        if self.controller is not None:
            # Live ECoST path: register the arrival with the controller
            # and invoke its scheduler in offline tie order.
            self.controller.submit(spec.instance, spec.submit_time, notify=False)
            self.cluster.wake_now(spec.submit_time)
        else:
            self.cluster.inject_arrival(spec)
        self._harvest()

    # ---------------------------------------------------------- dynamics
    def _advance_engine(self, t: float) -> None:
        self.cluster.advance_until(t)
        self.telemetry.record_advance()
        self._harvest()

    def _harvest(self) -> None:
        """Credit completions the engine produced since the last look."""
        results = self.cluster.results
        n = len(results)
        if n == self._harvested:
            return
        fresh = n - self._harvested
        for result in results[self._harvested:n]:
            name = self._owner.pop(id(result.spec.instance), None)
            if name is not None:
                self.tenants.get(name).on_complete()
        self._harvested = n
        self.telemetry.record_complete(fresh)
        if self.controller is not None:
            # Live ECoST path: completion telemetry also feeds the
            # online self-tuner (no-op for plain STP backends).
            notify = getattr(self.controller, "notify_completions", None)
            if callable(notify):
                notify()

    def pump(self) -> int:
        """Wall-mode tick: dispatch buffered jobs, advance to now.

        Returns the number of jobs dispatched.  A no-op in virtual
        mode, where every request advances the engine synchronously.
        """
        dispatched = 0
        while self._ingest:
            name, spec = self._ingest.popleft()
            self.tenants.get(name).queue.popleft()
            self.cluster_submit(spec)
            dispatched += 1
        if dispatched:
            self.telemetry.record_dispatch(dispatched)
        if not self._auto_advance:
            self._advance_engine(self.clock.now())
        return dispatched

    def drain(self) -> dict:
        """Finish every accepted job; returns the run summary.

        Dispatches anything still buffered, processes every remaining
        engine event, and verifies conservation: accepted == completed
        (an accepted job is never dropped).  The service stays usable
        afterwards — new arrivals simply continue the simulation.
        """
        while self._ingest:
            name, spec = self._ingest.popleft()
            self.tenants.get(name).queue.popleft()
            self.cluster_submit(spec)
            self.telemetry.record_dispatch()
        self.cluster.drain_events()
        self._harvest()
        if self.cluster.pending or any(n.running for n in self.cluster.nodes):
            raise RuntimeError(
                "service drain stalled with unfinished jobs: "
                + ", ".join(s.label for s in self.cluster.pending)
            )
        if self.controller is not None:
            # Controller invariant: nothing left in the wait queue.
            if len(self.controller.queue):
                raise RuntimeError(
                    "service drain finished with applications still queued"
                )
        if self.telemetry.inflight != 0 or self._owner:
            raise RuntimeError(
                f"conservation violated: {self.telemetry.inflight} accepted "
                f"job(s) unaccounted for after drain"
            )
        return self.summary()

    # ----------------------------------------------------------- queries
    def summary(self) -> dict:
        """Run-level facts (stable keys; floats are exact engine values)."""
        makespan = self.cluster.makespan
        return {
            "completed": len(self.cluster.results),
            "makespan": makespan,
            "energy_joules": self.cluster.total_energy(makespan),
            "accepted": self.telemetry.accepted,
            "rejected": self.telemetry.rejected,
            "inflight": self.telemetry.inflight,
        }

    def status(self) -> dict:
        """Live service state for the ``/status`` endpoint."""
        return {
            "clock": self.clock.now(),
            "engine_now": self.cluster.now,
            "scheduler": self.config.scheduler,
            "clock_mode": self.config.clock,
            "n_nodes": len(self.cluster.nodes),
            "requests": self.telemetry.requests,
            "accepted": self.telemetry.accepted,
            "rejected": self.telemetry.rejected,
            "malformed": self.telemetry.malformed,
            "completed": self.telemetry.completed,
            "inflight": self.telemetry.inflight,
            "pending_placement": len(self.cluster.pending),
            "ingest_backlog": len(self._ingest),
            "tenants": self.tenants.as_dict(),
        }

    def registry(self) -> MetricsRegistry:
        """The pre-wired metrics registry (``/metrics`` payload)."""
        return service_registry(self)

    def metrics_snapshot(self) -> dict:
        return self.registry().snapshot()

    def trace_payload(self) -> dict:
        """Chrome-trace JSON of the attached tracer (empty when off)."""
        if not self.tracer.enabled:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return self.tracer.to_chrome()

    def advance_to(self, t: float) -> None:
        """Virtual-clock mode: advance the simulation to time ``t``."""
        if not self._auto_advance:
            raise RuntimeError("advance_to is only meaningful in virtual mode")
        self.clock.advance_to(t)
        self._advance_engine(t)

    @property
    def results(self):
        return self.cluster.results


def _default_controller_factory(cluster: ClusterEngine):
    """Live ECoST controller from the cached STP/classifier artifacts."""
    from repro.core.controller import ECoSTController
    from repro.experiments.artifacts import get_components

    components = get_components("reptree")
    return ECoSTController(cluster, components.pair_stp, components.classifier)
