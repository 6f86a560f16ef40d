"""The seeded drift scenario: one command-line/benchmark/test harness.

One run builds the small offline pipeline (4 training applications ×
2 input sizes — cached through ``repro.experiments.artifacts``),
wraps the fitted model in champion/challenger shadow mode, and drives
an ECoST-scheduled cluster through a workload-mix shift from
:mod:`repro.faults.drift` plus an optional node crash/recovery (which
exercises the ``on_cluster_change`` relearn path).  Everything
derives from one seed: two runs with the same arguments produce
identical regret curves, promotion decisions, and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller import ECoSTController
from repro.faults import DriftSchedule, FaultEvent, FaultInjector, InjectionPlan
from repro.faults.drift import drifted_arrivals
from repro.mapreduce.engine import ClusterEngine
from repro.online.shadow import PromotionPolicy, ShadowSTP
from repro.online.stp import OnlineSTP
from repro.telemetry.registry import attach_online, cluster_registry
from repro.utils.rng import SeedLike
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

#: The reduced offline pipeline the scenario trains on: 4 known
#: applications at the two smaller input sizes.
PIPELINE_CODES: tuple[str, ...] = ("wc", "st", "ts", "fp")
PIPELINE_SIZES: tuple[int, ...] = (1 * GB, 5 * GB)

#: The post-shift mix: applications the pipeline never saw, at an
#: input size it never swept.
DRIFT_CODES: tuple[str, ...] = ("km", "cf", "nb")
DRIFT_SIZES: tuple[int, ...] = (10 * GB,)


def reduced_pipeline():
    """The reduced offline pipeline (every ``PIPELINE_CODES`` application
    at every ``PIPELINE_SIZES`` size, 200 rows per pair) — artifact-cached."""
    from repro.experiments.artifacts import train_pipeline

    return train_pipeline(
        [
            AppInstance(get_app(code), size)
            for code in PIPELINE_CODES
            for size in PIPELINE_SIZES
        ],
        rows_per_pair=200,
    )


def pipeline_components(model_kind: str = "reptree"):
    """(fitted MLM-STP, classifier, training dataset) — artifact-cached."""
    pipeline = reduced_pipeline()
    return pipeline.pair_stp(model_kind), pipeline.classifier, pipeline.dataset


@dataclass
class DriftRunReport:
    """Everything a drift run produced, JSON-able via :meth:`as_dict`."""

    n_jobs: int
    seed: int
    model_kind: str
    online: bool
    decisions: int
    promoted_at: int | None
    champion_curve: list[float] = field(default_factory=list)
    challenger_curve: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def champion_regret(self) -> float:
        return self.champion_curve[-1] if self.champion_curve else 0.0

    @property
    def challenger_regret(self) -> float:
        return self.challenger_curve[-1] if self.challenger_curve else 0.0

    def as_dict(self) -> dict:
        return {
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "model_kind": self.model_kind,
            "online": self.online,
            "decisions": self.decisions,
            "promoted_at": self.promoted_at,
            "champion_regret": self.champion_regret,
            "challenger_regret": self.challenger_regret,
            "champion_curve": list(self.champion_curve),
            "challenger_curve": list(self.challenger_curve),
            "counters": dict(self.counters),
            "summary": dict(self.summary),
        }

    def render(self) -> str:
        lines = [
            f"drift scenario: {self.n_jobs} job(s), seed {self.seed}, "
            f"model {self.model_kind}, online "
            + ("enabled" if self.online else "disabled"),
            f"  completed {self.summary.get('completed', 0)} job(s) in "
            f"{self.summary.get('makespan', 0.0):.1f}s "
            f"({self.summary.get('energy_joules', 0.0):.0f} J)",
        ]
        if self.online:
            state = (
                f"challenger promoted at decision {self.promoted_at}"
                if self.promoted_at is not None
                else "champion still active"
            )
            lines += [
                f"  {self.decisions} pairing decision(s) scored; {state}",
                f"  cumulative EDP regret: champion "
                f"{self.champion_regret:.3g} J*s, challenger "
                f"{self.challenger_regret:.3g} J*s",
                "  counters: "
                + ", ".join(
                    f"{key}={self.counters.get(f'online.{key}', 0):g}"
                    for key in (
                        "updates",
                        "refits",
                        "drift_alarms",
                        "relearn_sweeps",
                    )
                ),
            ]
        return "\n".join(lines)


def run_drift_scenario(
    *,
    n_jobs: int = 64,
    seed: SeedLike = 0,
    n_nodes: int = 4,
    model_kind: str = "reptree",
    online: bool = True,
    shift_frac: float = 0.35,
    drift_codes: tuple[str, ...] = DRIFT_CODES,
    drift_sizes: tuple[int, ...] = DRIFT_SIZES,
    mean_interarrival_s: float = 60.0,
    crash: bool = True,
    policy: PromotionPolicy | None = None,
    stp_kwargs: dict | None = None,
) -> DriftRunReport:
    """Run one seeded drift scenario end to end.

    ``stp_kwargs`` forwards extra keyword arguments to the
    :class:`~repro.online.stp.OnlineSTP` (window size, relearn depth,
    detector) — the benchmark uses a leaner window than the default.
    """
    stp, classifier, dataset = pipeline_components(model_kind)
    horizon = n_jobs * mean_interarrival_s
    shift_time = horizon * shift_frac
    schedule = DriftSchedule.workload_shift(
        shift_time,
        before_codes=PIPELINE_CODES,
        before_sizes=PIPELINE_SIZES,
        after_codes=drift_codes,
        after_sizes=drift_sizes,
    )
    arrivals = drifted_arrivals(
        n_jobs, schedule, seed=seed, mean_interarrival_s=mean_interarrival_s
    )
    cluster = ClusterEngine(n_nodes)
    shadow: ShadowSTP | None = None
    if online:
        challenger = OnlineSTP(
            stp, dataset=dataset, seed=seed, **(stp_kwargs or {})
        )
        shadow = ShadowSTP(stp, challenger, policy=policy)
        controller = ECoSTController(cluster, shadow, classifier)
    else:
        controller = ECoSTController(cluster, stp, classifier)
    for t, instance in arrivals:
        controller.submit(instance, t)
    if crash:
        plan = InjectionPlan(
            events=(
                FaultEvent(
                    time=shift_time + 3 * mean_interarrival_s,
                    kind="node_crash",
                    node_id=n_nodes - 1,
                ),
                FaultEvent(
                    time=shift_time + 10 * mean_interarrival_s,
                    kind="node_recover",
                    node_id=n_nodes - 1,
                ),
            )
        )
        FaultInjector(cluster, plan, controller=controller).install()
    controller.run()
    registry = cluster_registry(cluster, cache=False)
    attach_online(registry, controller)
    makespan = cluster.makespan
    report = DriftRunReport(
        n_jobs=n_jobs,
        seed=int(seed) if not hasattr(seed, "integers") else -1,
        model_kind=model_kind,
        online=online,
        decisions=shadow.telemetry.decisions if shadow is not None else 0,
        promoted_at=shadow.promoted_at if shadow is not None else None,
        champion_curve=list(shadow.champion_curve) if shadow is not None else [],
        challenger_curve=(
            list(shadow.challenger_curve) if shadow is not None else []
        ),
        counters=registry.flatten(registry.snapshot()),
        summary={
            "completed": len(cluster.results),
            "makespan": makespan,
            "energy_joules": cluster.total_energy(makespan),
            "relearn_count": controller.relearn_count,
        },
    )
    return report
