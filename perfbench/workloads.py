"""The four benchmark workloads: inputs, timed run and output checks.

Each workload drives the program only through a public entry point
(the HTTP service or ``ClusterEngine``) and runs in a fresh process
per repetition (see ``worker.py``).  Inputs
derive from one integer seed.  Application mixes are stratified (every
application, size and knob value appears equally often, in seeded
order) and arrival counts are fixed over a fixed horizon (a Poisson
process conditioned on its count: sorted uniform times), so figures
move with the seed by little more than the program's own variation.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import threading
import time

import numpy as np

GB = 1 << 30
MB = 1 << 20

#: Every application of the registry, listed here so the workload does
#: not change when the program's registry does.
APP_CODES = ("wc", "st", "gp", "ts", "nb", "fp", "cf", "svm", "pr", "hmm", "km")
SIZES = (1 * GB, 5 * GB)
FREQUENCIES = (1.2e9, 1.6e9, 2.0e9, 2.4e9)
BLOCK_SIZES = (64 * MB, 128 * MB, 256 * MB, 512 * MB)
MAPPERS = (2, 3, 4)

perf = time.perf_counter


# ------------------------------------------------------------- helpers
def balanced(rng, k: int, n: int) -> np.ndarray:
    """``n`` indices into ``range(k)``, each value equally often, in
    seeded order (shuffled blocks of one of each)."""
    blocks = -(-n // k)
    return np.concatenate([rng.permutation(k) for _ in range(blocks)])[:n]


def arrival_times(rng, n: int, mean_gap: float) -> np.ndarray:
    """``n`` Poisson arrivals conditioned on filling ``n * mean_gap``."""
    return np.sort(rng.uniform(0.0, n * mean_gap, n))


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def job_digest(rows) -> str:
    """SHA-256 over sorted (key, node, start, finish, energy) rows."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()


def result_rows(results, key) -> list[tuple]:
    return [
        (key(r), r.node_id, r.start_time, r.finish_time, r.energy_joules)
        for r in results
    ]


def waits_of(results) -> list[float]:
    return [r.start_time - r.spec.submit_time for r in results]


def engine_counters(telemetry) -> dict[str, float]:
    """Per-layer extras the engine's own telemetry keeps."""
    lookups = telemetry.recontext_hits + telemetry.recontext_misses
    return {
        "engine.events.events": telemetry.events,
        "engine.events.stale_share": (
            telemetry.stale_events / telemetry.events if telemetry.events else 0.0
        ),
        "engine.cache.hit_rate": (
            telemetry.recontext_hits / lookups if lookups else 0.0
        ),
        "engine.kernel.evals": telemetry.kernel_evals,
        "engine.recorder.segments": telemetry.segments_recorded,
        "engine.recorder.dropped": telemetry.segments_dropped,
        "faults.injected": telemetry.faults_injected,
    }


class Outcomes:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.errors: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def check(self, cond: bool, why: str) -> None:
        """One output check, counted as an operation."""
        if cond:
            self.ok()
        else:
            self.fail(why)


# --------------------------------------------------------- HTTP client
class HttpHarness:
    """The service's HTTP server on a loopback thread plus a closed-loop
    client: one connection per request, each waiting for its reply."""

    def __init__(self, service, tracer=None) -> None:
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        self._asyncio = asyncio
        self.tracer = tracer
        self.requests = 0
        self._loop = asyncio.new_event_loop()
        self._server = ServiceServer(service)
        started = threading.Event()
        failure: list[BaseException] = []

        def serve() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._server.start())
            except BaseException as exc:  # reported to the starting thread
                failure.append(exc)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=serve, name="service", daemon=True)
        self._thread.start()
        if not started.wait(30) or failure:
            raise RuntimeError(f"service did not start: {failure}")
        self.port = self._server.port
        self.client = ServiceClient("127.0.0.1", self.port, timeout=60)

    def call(self, method: str, path: str, payload=None, *, raw: bytes | None = None):
        """(HTTP status, decoded body, seconds); status 0 on transport error."""
        from repro.service.client import ServiceClientError

        tracer = self.tracer
        self.requests += 1
        if tracer is not None:
            tracer.enter("service.server")
        t0 = perf()
        try:
            if raw is None:
                status, body = 200, self.client.request(method, path, payload)
            else:
                status, body = self._raw(path, raw)
        except ServiceClientError as exc:
            status, body = exc.status, {"ok": False, "error": exc.message}
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = 0, {"ok": False, "error": repr(exc)}
        finally:
            dt = perf() - t0
            if tracer is not None:
                tracer.exit()
        return status, body, dt

    def _raw(self, path: str, body: bytes):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, json.loads(data) if data else None

    def close(self) -> None:
        future = self._asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop)
        future.result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30)
        self._loop.close()


def named_error(status: int, body) -> bool:
    """A refusal of malformed input: 4xx or ok=False, with a message."""
    if status >= 500 or status == 0 or not isinstance(body, dict):
        return False
    error = body.get("error")
    return body.get("ok") is False and isinstance(error, str) and bool(error.strip())


# ==================================================== ECoST over HTTP
class EcostService:
    """The ECoST-scheduled service (virtual clock) over HTTP: one
    ``/submit`` at a time, then ``/drain``.  Set-up trains the reduced
    STP and classifier pipeline of ``repro.online.scenario`` from an
    empty artifact cache."""

    n_jobs: int
    mean_gap_s: float
    n_nodes: int
    tenants = ("t0", "t1", "t2")

    def mix(self, rng, n: int) -> list[tuple[str, int]]:
        """(application, input size) of each arrival, in arrival order."""
        codes = balanced(rng, len(APP_CODES), n)
        sizes = balanced(rng, len(SIZES), n)
        return [(APP_CODES[c], SIZES[z]) for c, z in zip(codes, sizes)]

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        n = self.n_jobs
        times = arrival_times(rng, n, self.mean_gap_s)
        mix = self.mix(rng, n)
        tenants = balanced(rng, len(self.tenants), n)
        return [
            {
                "tenant": self.tenants[tenants[i]],
                "time": float(times[i]),
                "code": mix[i][0],
                "data_bytes": mix[i][1],
                "job_id": i + 1,
            }
            for i in range(n)
        ]

    def predictor(self, stp, dataset, seed: int):
        return stp

    def setup(self, seed: int, tracer) -> None:
        from repro.core.controller import ECoSTController
        from repro.online.scenario import pipeline_components
        from repro.service import ClusterService, ServiceConfig

        self.payloads = self.inputs(seed)
        stp, classifier, dataset = pipeline_components("reptree")
        predictor = self.predictor(stp, dataset, seed)
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            n_nodes=self.n_nodes,
            scheduler="ecost",
            clock="virtual",
        )
        self.service = ClusterService(
            config,
            controller_factory=lambda cluster: ECoSTController(cluster, predictor, classifier),
        )
        self.http = HttpHarness(self.service, tracer)
        self.out = Outcomes()
        self.acks_ms: list[float] = []
        self.summary = None

    def run(self) -> None:
        out, acks = self.out, self.acks_ms
        for payload in self.payloads:
            status, ack, dt = self.http.call("POST", "/submit", payload)
            acks.append(dt * 1e3)
            if status == 200 and isinstance(ack, dict) and ack.get("accepted") is True:
                out.ok()
            else:
                out.fail(f"job {payload['job_id']}: {status} {ack}")
        status, summary, _dt = self.http.call("POST", "/drain", {})
        if status == 200:
            self.summary = summary
            out.ok()
        else:
            out.fail(f"drain: {status} {summary}")

    def check(self) -> dict:
        out = self.out
        service = self.service
        controller = service.controller
        results = service.results
        n = len(self.payloads)
        # The controller re-specs each job with its own id; the arrival
        # (time, application, size) identifies the request.
        index = {(p["time"], p["code"], p["data_bytes"]): i for i, p in enumerate(self.payloads)}

        def request_of(r):
            return index.get((r.spec.submit_time, r.spec.instance.code, r.spec.instance.data_bytes), -1)

        keys = [request_of(r) for r in results]
        out.check(
            sorted(keys) == list(range(n)),
            f"{len(results)} results do not complete the {n} jobs exactly once",
        )
        # Crash re-executions are the fault layer's; the controller
        # places each accepted job exactly once.
        placed = sum(1 for line in controller.decisions if ": start " in line)
        out.check(placed == n, f"controller placed {placed} jobs for {n} requests")
        out.check(len(controller.queue) == 0, "controller wait queue not empty after drain")
        out.check(not service.cluster.pending, "engine has pending jobs after drain")
        summary = self.summary or {}
        out.check(
            summary.get("completed") == n and summary.get("inflight") == 0,
            f"drain summary {summary}",
        )
        counters = engine_counters(service.cluster.telemetry)
        telemetry = service.telemetry
        counters.update(
            {
                "service.server.requests": self.http.requests,
                "service.requests.malformed": telemetry.malformed,
                "service.admission.refused": telemetry.rejected,
                "service.core.advances": telemetry.advances,
                "core.controller.placements": placed,
            }
        )
        return {
            "jobs": len(results),
            "ack_ms": self.acks_ms,
            "read_ms": [],
            "sim_edp": summary.get("energy_joules", 0.0) * summary.get("makespan", 0.0),
            "waits": waits_of(results),
            "digest": job_digest(result_rows(results, request_of)),
            "counters": counters,
        }

    def close(self) -> None:
        self.http.close()


class EcostSteady(EcostService):
    """Plain ECoST: 8 homogeneous Atom nodes, a three-tenant stream of
    every application at 1 and 5 GB.  Arrivals run at about 88% of the
    measured ECoST drain rate of this cluster (0.0356 jobs/s), so the
    wait queue stays bounded and most acks carry one pairing decision."""

    name = "ecost_steady"
    #: sim_edp hangs on the jobs still running after the last arrival;
    #: a 288-job horizon halves their weight against a 144-job one.
    n_jobs = 288
    mean_gap_s = 32.0
    n_nodes = 8


class OnlineDrift(EcostService):
    """Online self-tuning under drift, driven through the ECoST service:
    the drift scenario of ``repro.online.scenario`` (its pipeline, its
    4 nodes, 60 s mean gap, mix shift at 35% of the stream to
    applications and an input size the pipeline never saw, one node
    crash and recovery), with a champion/challenger ``ShadowSTP``
    around an ``OnlineSTP`` as the service's predictor.

    ``run_drift_scenario`` itself draws an unstratified 64-job mix; its
    simulated EDP varied by 0.49 (quartile spread over median, five
    seeds of three runs each), so this workload stratifies the same
    scenario and feeds it through the service instead.  A 512-row
    window keeps each refit small, so the seed-dependent number of
    drift alarms moves run time little.
    """

    name = "online_drift"
    n_jobs = 60
    mean_gap_s = 60.0
    n_nodes = 4
    shift_frac = 0.35
    window = 512

    def mix(self, rng, n: int) -> list[tuple[str, int]]:
        from repro.online.scenario import (
            DRIFT_CODES,
            DRIFT_SIZES,
            PIPELINE_CODES,
            PIPELINE_SIZES,
        )

        before = [(c, int(z)) for c in PIPELINE_CODES for z in PIPELINE_SIZES]
        after = [(c, int(z)) for c in DRIFT_CODES for z in DRIFT_SIZES]
        n_before = int(n * self.shift_frac)
        return [before[i] for i in balanced(rng, len(before), n_before)] + [
            after[i] for i in balanced(rng, len(after), n - n_before)
        ]

    def predictor(self, stp, dataset, seed: int):
        from repro.online.shadow import ShadowSTP
        from repro.online.stp import OnlineSTP

        self.shadow = ShadowSTP(
            stp, OnlineSTP(stp, dataset=dataset, seed=seed, window=self.window)
        )
        return self.shadow

    def setup(self, seed: int, tracer) -> None:
        from repro.faults import FaultEvent, FaultInjector, InjectionPlan

        super().setup(seed, tracer)
        shift = self.payloads[int(self.n_jobs * self.shift_frac)]["time"]
        victim = self.n_nodes - 1
        plan = InjectionPlan(
            events=(
                FaultEvent(time=shift + 3 * self.mean_gap_s, kind="node_crash", node_id=victim),
                FaultEvent(time=shift + 10 * self.mean_gap_s, kind="node_recover", node_id=victim),
            )
        )
        FaultInjector(self.service.cluster, plan, controller=self.service.controller).install()

    def check(self) -> dict:
        data = super().check()
        out = self.out
        shadow = self.shadow
        champion, challenger = shadow.champion_curve, shadow.challenger_curve
        decisions = shadow.telemetry.decisions
        out.check(decisions > 0, "no pairing decision was scored")
        for name, curve in (("champion", champion), ("challenger", challenger)):
            out.check(len(curve) == decisions, f"{name} curve has {len(curve)} points for {decisions} decisions")
            out.check(all(math.isfinite(v) for v in curve), f"{name} regret curve is not finite")
            out.check(all(b >= a for a, b in zip(curve, curve[1:])), f"{name} regret curve decreases")
        injected = data["counters"]["faults.injected"]
        out.check(injected == 2, f"{injected} faults injected, the plan has 2")
        promoted = shadow.promoted_at
        if promoted is None:
            served = champion[-1] if champion else 0.0
        else:
            # Decisions up to the promotion were the champion's.
            served = champion[promoted - 1] + challenger[-1] - challenger[promoted - 1]
        online = shadow.telemetry
        data["sim_regret"] = served
        data["counters"].update(
            {
                "online.updates": online.updates,
                "online.refits": online.refits,
                "online.relearn_sweeps": online.relearn_sweeps,
                "online.drift_alarms": online.drift_alarms,
                "online.tuned_hits": online.tuned_hits,
            }
        )
        return data


# ========================================================== engine_backlog
class EngineBacklog:
    """A raw ``ClusterEngine`` (FIFO first-fit) on a mixed atom/xeon
    roster with the streaming interval recorder, fed one
    ``inject_arrival`` at a time with an untuned stream arriving about
    17 times faster than the cluster drains (0.059 jobs/s), so the
    pending queue grows deep and the recontext cache misses often."""

    name = "engine_backlog"
    n_jobs = 10000
    mean_gap_s = 1.0
    roster = ("atom", "xeon") * 4

    def inputs(self, seed: int):
        from repro.mapreduce.job import JobSpec
        from repro.model.config import JobConfig
        from repro.workloads.base import AppInstance
        from repro.workloads.registry import get_app

        rng = np.random.default_rng(seed)
        n = self.n_jobs
        times = arrival_times(rng, n, self.mean_gap_s)
        codes = balanced(rng, len(APP_CODES), n)
        sizes = balanced(rng, len(SIZES), n)
        freqs = balanced(rng, len(FREQUENCIES), n)
        blocks = balanced(rng, len(BLOCK_SIZES), n)
        mappers = balanced(rng, len(MAPPERS), n)
        apps = {code: get_app(code) for code in APP_CODES}
        return [
            JobSpec(
                instance=AppInstance(apps[APP_CODES[codes[i]]], SIZES[sizes[i]]),
                config=JobConfig(
                    frequency=FREQUENCIES[freqs[i]],
                    block_size=BLOCK_SIZES[blocks[i]],
                    n_mappers=MAPPERS[mappers[i]],
                ),
                submit_time=float(times[i]),
                job_id=i + 1,
            )
            for i in range(n)
        ]

    def setup(self, seed: int, tracer) -> None:
        from repro.hardware import roster_from_classes
        from repro.mapreduce.engine import ClusterEngine

        self.specs = self.inputs(seed)
        self.cluster = ClusterEngine(
            roster=roster_from_classes(self.roster), recorder="streaming"
        )
        self.acks_ms: list[float] = []
        self.out = Outcomes()

    def run(self) -> None:
        inject = self.cluster.inject_arrival
        acks = self.acks_ms
        for spec in self.specs:
            t0 = perf()
            inject(spec)
            acks.append((perf() - t0) * 1e3)
        self.cluster.drain_events()

    def check(self) -> dict:
        out = self.out
        cluster = self.cluster
        results = cluster.results
        n = self.n_jobs
        out.check(
            sorted(r.spec.job_id for r in results) == list(range(1, n + 1)),
            f"{len(results)} results do not complete the {n} jobs exactly once",
        )
        out.check(
            not cluster.pending and not any(node.running for node in cluster.nodes),
            "jobs left pending or running",
        )
        makespan = cluster.makespan
        energy = cluster.total_energy(makespan)
        out.check(
            math.isfinite(energy) and energy > 0 and makespan >= self.specs[-1].submit_time,
            f"energy {energy} / makespan {makespan}",
        )
        return {
            "jobs": len(results),
            "ack_ms": self.acks_ms,
            "read_ms": [],
            "sim_edp": energy * makespan,
            "waits": waits_of(results),
            "digest": job_digest(result_rows(results, lambda r: r.spec.job_id)),
            "counters": engine_counters(cluster.telemetry),
        }

    def close(self) -> None:
        pass


# ============================================================= fifo_ingest
#: Token-bucket refill per tenant (jobs per simulated second) and
#: capacity.  Powers of two keep every bucket level exact in binary, so
#: the expected refusals below are exact, not estimates.
FIFO_RATE = 1.0 / 128.0
FIFO_BURST = 32.0


class FifoIngest:
    """FIFO-scheduled service, virtual clock, 8 homogeneous Atom nodes,
    tuned jobs (the service fills each class's tuned knobs).

    * ``bulk`` uploads bursts of 16 jobs in one ``/batch`` (the
      ``repro submit --stream`` path), spaced so its bucket refills;
    * ``i1`` and ``i2`` post ``/submit`` at most once per refill
      period, so they are never refused;
    * ``hog`` posts ``/submit`` every half refill period: once its
      burst is spent every other request is refused with
      ``rate_limit`` — the designed refusal share;
    * every 25th operation is a malformed payload (eight kinds), and
      every 4th batch carries one malformed item;
    * every 10th operation reads ``GET /metrics``.
    """

    name = "fifo_ingest"
    n_nodes = 8
    #: Simulated seconds of traffic; with the rates below about 0.027
    #: accepted jobs/s, 70% of this cluster's FIFO drain rate.
    horizon_s = 105_000.0
    burst_jobs = 16
    #: Mean spacing of within-quota arrivals, in units of the minimum
    #: spacing that keeps their bucket from running dry.
    slack = 1.25
    malformed_every = 25
    read_every = 10

    def _spaced(self, rng, n: int, min_gap: float) -> np.ndarray:
        """``n`` arrival times at least ``min_gap`` apart filling the horizon."""
        extra = rng.exponential(1.0, n)
        gaps = min_gap + extra * ((self.horizon_s - n * min_gap) / extra.sum())
        return np.cumsum(gaps) - gaps[0] / 2

    def inputs(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        period = 1.0 / FIFO_RATE
        events: list[tuple[float, int, str, int]] = []
        # hog: exact binary times, one every half refill period.
        for k in range(int(self.horizon_s / period * 2)):
            events.append((period / 2 * (k + 1), 0, "hog", 1))
        per_tenant = int(self.horizon_s / period / self.slack)
        for order, name in ((1, "i1"), (2, "i2")):
            for t in self._spaced(rng, per_tenant, period):
                events.append((float(t), order, name, 1))
        bursts = per_tenant // self.burst_jobs
        for t in self._spaced(rng, bursts, self.burst_jobs * period):
            events.append((float(t), 3, "bulk", self.burst_jobs))
        events.sort()
        n_jobs = sum(e[3] for e in events)
        codes = balanced(rng, len(APP_CODES), n_jobs)
        sizes = balanced(rng, len(SIZES), n_jobs)
        ops: list[tuple] = []
        tokens, last_t = FIFO_BURST, 0.0
        job = 0
        batches = 0
        malformed = 0
        for t, _order, tenant, count in events:
            items = []
            for _ in range(count):
                payload = {
                    "tenant": tenant,
                    "time": t,
                    "code": APP_CODES[codes[job]],
                    "data_bytes": SIZES[sizes[job]],
                    "job_id": job + 1,
                }
                job += 1
                expect = "accept"
                if tenant == "hog":
                    tokens = min(FIFO_BURST, tokens + (t - last_t) * FIFO_RATE)
                    last_t = t
                    if tokens >= 1.0:
                        tokens -= 1.0
                    else:
                        expect = "refuse"
                items.append((payload, expect))
            if tenant == "bulk":
                batches += 1
                if batches % 4 == 0:
                    items.append(({"tenant": "bulk", "time": t, "data_bytes": GB}, "malformed"))
                ops.append(("batch", items))
            else:
                ops.append(("submit", items[0]))
            if len(ops) % self.malformed_every == 0:
                ops.append(("bad", malformed % len(_MALFORMED), t))
                malformed += 1
            if len(ops) % self.read_every == 0:
                ops.append(("read",))
        return ops

    def setup(self, seed: int, tracer) -> None:
        from repro.service import ClusterService, ServiceConfig

        self.ops = self.inputs(seed)
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            n_nodes=self.n_nodes,
            scheduler="fifo",
            clock="virtual",
            rate_per_s=FIFO_RATE,
            burst=FIFO_BURST,
        )
        self.service = ClusterService(config)
        self.http = HttpHarness(self.service, tracer)
        self.out = Outcomes()
        self.acks_ms: list[float] = []
        self.reads_ms: list[float] = []
        self.accepted: list[dict] = []
        self.summary = None

    def _judge(self, payload, expect, status, ack) -> None:
        out = self.out
        if expect == "malformed":
            out.check(named_error(status, ack), f"malformed payload answered {status} {ack}")
            return
        if status != 200 or not isinstance(ack, dict) or ack.get("ok") is not True:
            out.fail(f"job {payload.get('job_id')}: {status} {ack}")
        elif ack.get("accepted") is True:
            if expect == "accept":
                self.accepted.append(payload)
                out.ok()
            else:
                out.fail(f"job {payload['job_id']} accepted, expected a refusal")
        elif expect == "refuse" and ack.get("reason") == "rate_limit":
            out.ok()
            out.refused += 1
        else:
            out.fail(f"job {payload['job_id']} refused ({ack.get('reason')!r}), expected {expect}")

    def run(self) -> None:
        call = self.http.call
        for op in self.ops:
            kind = op[0]
            if kind == "submit":
                payload, expect = op[1]
                status, ack, dt = call("POST", "/submit", payload)
                self.acks_ms.append(dt * 1e3)
                self._judge(payload, expect, status, ack)
            elif kind == "batch":
                items = op[1]
                status, acks, _dt = call("POST", "/batch", [p for p, _e in items])
                if status != 200 or not isinstance(acks, list) or len(acks) != len(items):
                    self.out.fail(f"batch: {status} {acks}")
                    continue
                for (payload, expect), ack in zip(items, acks):
                    self._judge(payload, expect, status, ack)
            elif kind == "bad":
                body = _MALFORMED[op[1]](op[2])
                if isinstance(body, bytes):
                    status, ack, dt = call("POST", "/submit", raw=body)
                else:
                    status, ack, dt = call("POST", "/submit", body)
                self.acks_ms.append(dt * 1e3)
                self._judge({}, "malformed", status, ack)
            else:
                status, snapshot, dt = call("GET", "/metrics")
                self.reads_ms.append(dt * 1e3)
                served = snapshot.get("service", {}) if isinstance(snapshot, dict) else {}
                self.out.check(
                    status == 200 and served.get("accepted") == len(self.accepted),
                    f"/metrics reports {served.get('accepted')} accepted, client saw {len(self.accepted)}",
                )
        status, summary, _dt = call("POST", "/drain", {})
        if status == 200:
            self.summary = summary
            self.out.ok()
        else:
            self.out.fail(f"drain: {status} {summary}")

    def check(self) -> dict:
        from repro.mapreduce.engine import ClusterEngine
        from repro.service.requests import requests_to_specs

        out = self.out
        service = self.service
        results = service.results
        n = len(self.accepted)
        ids = sorted(r.spec.job_id for r in results)
        out.check(
            ids == sorted(p["job_id"] for p in self.accepted),
            f"{len(results)} results do not complete the {n} accepted jobs exactly once",
        )
        summary = self.summary or {}
        out.check(
            summary.get("completed") == n and summary.get("inflight") == 0,
            f"drain summary {summary}",
        )
        # Replay contract: the accepted jobs through an offline engine
        # reproduce energy, makespan and every job's record bit for bit.
        offline = ClusterEngine(self.n_nodes, recorder="off")
        for spec in requests_to_specs(self.accepted):
            offline.submit(spec)
        offline.run()
        makespan = offline.makespan
        out.check(
            makespan == summary.get("makespan")
            and offline.total_energy(makespan) == summary.get("energy_joules"),
            "offline replay differs from the service run",
        )
        digest = job_digest(result_rows(results, lambda r: r.spec.job_id))
        out.check(
            digest == job_digest(result_rows(offline.results, lambda r: r.spec.job_id)),
            "offline replay job records differ from the service run",
        )
        counters = engine_counters(service.cluster.telemetry)
        telemetry = service.telemetry
        counters.update(
            {
                "service.server.requests": self.http.requests,
                "service.requests.malformed": telemetry.malformed,
                "service.admission.refused": telemetry.rejected,
                "service.core.advances": telemetry.advances,
            }
        )
        return {
            "jobs": len(results),
            "ack_ms": self.acks_ms,
            "read_ms": self.reads_ms,
            "sim_edp": summary.get("energy_joules", 0.0) * summary.get("makespan", 0.0),
            "waits": waits_of(results),
            "digest": digest,
            "counters": counters,
        }

    def close(self) -> None:
        self.http.close()


#: Malformed /submit bodies by arrival time (bytes are sent as they
#: are): each must get a named error, never an ack.
_MALFORMED = (
    lambda t: {"tenant": "i1", "time": t, "data_bytes": GB},
    lambda t: {"tenant": "i1", "time": t, "code": "zz", "data_bytes": GB},
    lambda t: {"tenant": "i2", "time": t, "code": "wc", "data_bytes": -5},
    lambda t: {"tenant": "i2", "time": t / 2 - 1, "code": "wc", "data_bytes": GB},
    lambda t: {"tenant": "i1", "time": t, "code": "st", "data_bytes": GB, "frequency": 3.1e9},
    lambda t: ["not", "an", "object"],
    lambda t: b'{"tenant": "i1", "code": ',
    lambda t: {"tenant": "i2", "time": t, "code": "ts", "data_bytes": GB, "job_id": "x"},
)


WORKLOADS = {
    cls.name: cls for cls in (EcostSteady, OnlineDrift, EngineBacklog, FifoIngest)
}
