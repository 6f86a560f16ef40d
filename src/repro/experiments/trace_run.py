"""Seeded, traced replay runs: ``python -m repro trace <experiment>``.

One deterministic workload is replayed with a live
:class:`~repro.telemetry.tracing.Tracer` attached, producing a
Perfetto-loadable Chrome trace (job lifetimes, derived map/shuffle
phases, controller decisions, fault/recovery episodes) plus the flat
metrics JSON of a :class:`~repro.telemetry.registry.MetricsRegistry`.

Tracing is purely observational, so the traced run is byte-identical
to the same seeded run with tracing disabled — ``tests/test_tracing.py``
pins this, and :func:`run_traced` is the fixture both the CLI and the
CI trace-smoke job replay.

Experiments
-----------
``steady``
    Tuned Poisson stream on the FIFO first-fit baseline: job and phase
    spans plus the pending-queue counter.
``faulty``
    The same stream with a seeded :class:`InjectionPlan` and the
    fault injector (HDFS-backed recovery): adds fault instants,
    node-down spans, and recovery-episode spans.
``ecost``
    The stream driven by the :class:`ECoSTController` (cached STP +
    classifier artifacts) under the same fault plan: adds
    classification, pairing, and placement decision instants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import InjectionPlan
from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobResult
from repro.telemetry.registry import MetricsRegistry, cluster_registry
from repro.telemetry.tracing import Tracer
from repro.utils.rng import SeedLike
from repro.workloads.streams import poisson_job_stream

#: The replayable experiments, in documentation order.
TRACE_EXPERIMENTS = ("steady", "faulty", "ecost")


@dataclass(frozen=True)
class TracedRun:
    """Everything one traced replay produced."""

    experiment: str
    tracer: Tracer
    registry: MetricsRegistry
    results: list[JobResult]
    makespan: float
    energy_joules: float

    def summary(self) -> dict[str, float]:
        """Flat facts for the CLI banner and the smoke job."""
        cats = sorted({s.cat for s in self.tracer.spans})
        out: dict[str, float] = {
            "jobs_completed": len(self.results),
            "makespan_s": self.makespan,
            "energy_joules": self.energy_joules,
            "trace_events": self.tracer.n_events,
        }
        for cat in cats:
            out[f"spans_{cat}"] = len(self.tracer.spans_by_cat(cat))
        return out


def run_traced(
    experiment: str,
    *,
    n_jobs: int = 60,
    n_nodes: int = 8,
    seed: SeedLike = 0,
    fault_rate_per_1ks: float = 6.0,
    fault_seed: SeedLike = 7,
    model_kind: str = "reptree",
    tracer: Tracer | None = None,
) -> TracedRun:
    """Replay one seeded experiment with tracing enabled.

    The workload, the fault plan, and every scheduling decision are
    functions of the seeds alone; the tracer only observes.  Passing
    ``tracer=None`` (the default) attaches a fresh :class:`Tracer`.
    """
    if experiment not in TRACE_EXPERIMENTS:
        raise ValueError(
            f"unknown trace experiment {experiment!r}; "
            f"choose from {', '.join(TRACE_EXPERIMENTS)}"
        )
    tracer = tracer if tracer is not None else Tracer()
    specs = list(
        poisson_job_stream(n_jobs, seed=seed, tuned=True, job_ids_from=1)
    )
    cluster = ClusterEngine(n_nodes, tracer=tracer)

    controller = None
    if experiment == "ecost":
        from repro.core.controller import ECoSTController
        from repro.experiments.artifacts import train_pipeline

        pipeline = train_pipeline()
        controller = ECoSTController(
            cluster, pipeline.pair_stp(model_kind), pipeline.classifier
        )
        for spec in specs:
            controller.submit(spec.instance, spec.submit_time)
    else:
        for spec in specs:
            cluster.submit(spec)

    if experiment in ("faulty", "ecost"):
        from repro.experiments.fault_tolerance import _build_hdfs

        horizon = specs[-1].submit_time + 4000.0
        plan = InjectionPlan.generate(
            n_nodes,
            horizon,
            rate_per_1ks=fault_rate_per_1ks,
            seed=fault_seed,
        )
        hdfs, job_files = _build_hdfs(specs, n_nodes)
        FaultInjector(
            cluster,
            plan,
            hdfs=hdfs,
            job_files=job_files if experiment == "faulty" else {},
            controller=controller,
        ).install()

    results = controller.run() if controller is not None else cluster.run()
    registry = cluster_registry(cluster)
    return TracedRun(
        experiment=experiment,
        tracer=tracer,
        registry=registry,
        results=results,
        makespan=cluster.makespan,
        energy_joules=cluster.total_energy(),
    )
