"""Steady-state extension: ECoST under continuous Poisson arrivals.

The paper describes the wait queue "in steady state" — applications
arrive continuously and are paired as slots free up (§5) — but
evaluates only batch workloads (Table 3).  This extension drives the
controller with a Poisson arrival stream of random applications and
measures the queueing behaviour the batch experiments cannot show:
waiting times, queue dynamics, and the energy-per-job rate, with the
class-priority pairing compared against plain FIFO pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from repro.analysis.classify import NearestCentroidClassifier
from repro.core.controller import ECoSTController
from repro.core.pairing import PairingPolicy
from repro.core.stp import SelfTuningPredictor
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.engine import ClusterEngine
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.telemetry.counters import EngineTelemetry
from repro.utils.rng import SeedLike, rng_from
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import ALL_APPS, get_app


@dataclass(frozen=True)
class SteadyStateMetrics:
    """Queueing + energy metrics of one streaming run."""

    label: str
    n_jobs: int
    makespan: float
    mean_wait_s: float
    p95_wait_s: float
    max_wait_s: float
    energy_per_job_kj: float
    mean_wait_by_class: dict[str, float]

    def fairness_spread_s(self) -> float:
        """Max − min mean wait across classes (seconds; 0 = even)."""
        waits = list(self.mean_wait_by_class.values())
        if len(waits) < 2:
            return 0.0
        return max(waits) - min(waits)


@dataclass(frozen=True)
class SteadyStateReport:
    runs: tuple[SteadyStateMetrics, ...]
    #: Engine hot-path counters per run (events, recontext cache hit
    #: rate), keyed by run label.  Diagnostic only — not rendered, so
    #: the report's text output is independent of engine internals.
    telemetry: dict[str, "EngineTelemetry"] = dataclasses_field(
        default_factory=dict, compare=False
    )

    def render(self) -> str:
        rows = [
            [
                r.label, r.n_jobs, r.makespan, r.mean_wait_s, r.p95_wait_s,
                r.max_wait_s, r.energy_per_job_kj, r.fairness_spread_s(),
            ]
            for r in self.runs
        ]
        return render_table(
            [
                "pairing", "jobs", "makespan (s)", "mean wait (s)",
                "p95 wait (s)", "max wait (s)", "kJ/job", "wait spread (s)",
            ],
            rows,
            title="Steady-state extension — Poisson arrivals on 4 nodes",
            floatfmt=".1f",
        )


def _poisson_workload(
    n_jobs: int, mean_interarrival_s: float, seed: SeedLike
) -> list[tuple[float, AppInstance]]:
    rng = rng_from(seed)
    t = 0.0
    out = []
    for _ in range(n_jobs):
        t += float(rng.exponential(mean_interarrival_s))
        code = ALL_APPS[int(rng.integers(len(ALL_APPS)))]
        size = int(rng.choice([1 * GB, 5 * GB]))
        out.append((t, AppInstance(get_app(code), size)))
    return out


def run_steady_state(
    stp: SelfTuningPredictor,
    classifier: NearestCentroidClassifier,
    *,
    n_jobs: int = 40,
    mean_interarrival_s: float = 18.0,
    n_nodes: int = 4,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: SeedLike = 0,
) -> SteadyStateReport:
    """Stream one Poisson workload through ECoST and FIFO pairing."""
    arrivals = _poisson_workload(n_jobs, mean_interarrival_s, seed)
    telemetry: dict[str, EngineTelemetry] = {}

    def run(label: str, pairing: PairingPolicy) -> SteadyStateMetrics:
        cluster = ClusterEngine(n_nodes, node, constants=constants)
        telemetry[label] = cluster.telemetry
        controller = ECoSTController(
            cluster, stp, classifier,
            pairing=pairing, node=node, constants=constants,
        )
        for t, inst in arrivals:
            controller.submit(inst, arrival_time=t)
        results = controller.run()
        waits = np.array([r.wait_time for r in results])
        by_class: dict[str, list[float]] = {}
        for r in results:
            by_class.setdefault(r.spec.instance.app_class.value, []).append(
                r.wait_time
            )
        makespan = cluster.makespan
        return SteadyStateMetrics(
            label=label,
            n_jobs=len(results),
            makespan=makespan,
            mean_wait_s=float(waits.mean()),
            p95_wait_s=float(np.percentile(waits, 95)),
            max_wait_s=float(waits.max()),
            energy_per_job_kj=cluster.total_energy(makespan) / len(results) / 1e3,
            mean_wait_by_class={
                k: float(np.mean(v)) for k, v in by_class.items()
            },
        )

    ecost = run("class-priority (ECoST)", PairingPolicy())
    fifo = run("FIFO pairing", PairingPolicy(priority={c: 0 for c in AppClass}))
    return SteadyStateReport(runs=(ecost, fifo), telemetry=telemetry)
