"""Declarative engine scenarios: the unit every conformance check runs on.

A :class:`Scenario` is a frozen, fully-serialisable description of one
cluster run — node count, jobs (application, input size, the three
tuning knobs, arrival time) and an explicit fault-event schedule.  It
is deliberately *data, not objects*: the fuzzer mutates it, the
shrinker minimises it, and :meth:`Scenario.to_source` renders it back
into paste-ready Python so a minimised failure becomes a committed
regression test verbatim.

:func:`run_scenario` is the one funnel through which every check (and
every mutant self-verification run) executes a scenario, so patching
the engine in one place mutates every consumer consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, InjectionPlan
from repro.hardware.classes import NODE_CLASSES, roster_from_classes
from repro.hardware.node import NodeSpec
from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app

#: Fallback horizon padding when a scenario carries fault events that
#: outlive its arrivals (mirrors the property suite's convention).
_HORIZON_PAD_S = 4000.0


@dataclass(frozen=True)
class ScenarioJob:
    """One job of a scenario, as plain knobs (no engine objects)."""

    code: str
    data_bytes: int
    frequency: float
    block_size: int
    n_mappers: int
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.code not in ALL_APPS:
            raise ValueError(
                f"unknown application {self.code!r}; valid: {', '.join(ALL_APPS)}"
            )
        if self.data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        if self.submit_time < 0:
            raise ValueError("submit_time must be >= 0")
        # Knob validity (DVFS level, studied block size, mapper range)
        # is enforced at placement time by JobConfig.validate_for.
        JobConfig(
            frequency=self.frequency,
            block_size=self.block_size,
            n_mappers=self.n_mappers,
        )

    @property
    def config(self) -> JobConfig:
        return JobConfig(
            frequency=self.frequency,
            block_size=self.block_size,
            n_mappers=self.n_mappers,
        )

    @property
    def instance(self) -> AppInstance:
        return AppInstance(get_app(self.code), self.data_bytes)

    def identity(self) -> tuple:
        """What makes two jobs *the same work* (submit time excluded)."""
        return (
            self.code,
            self.data_bytes,
            self.frequency,
            self.block_size,
            self.n_mappers,
        )

    def to_source(self) -> str:
        parts = [
            f"code={self.code!r}",
            f"data_bytes={self.data_bytes}",
            f"frequency={self.frequency!r}",
            f"block_size={self.block_size}",
            f"n_mappers={self.n_mappers}",
        ]
        if self.submit_time:
            parts.append(f"submit_time={self.submit_time!r}")
        return f"ScenarioJob({', '.join(parts)})"


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible engine run description.

    ``node_classes`` — empty by default — names each node's hardware
    class (see :data:`repro.hardware.classes.NODE_CLASSES`) in
    placement order.  An empty tuple means "homogeneous default
    hardware", which is byte-identical to the pre-heterogeneity
    scenario format: every serialised scenario from before this field
    existed still round-trips exactly, and :meth:`to_source` only
    emits the field when it is set.
    """

    n_nodes: int
    jobs: tuple[ScenarioJob, ...]
    fault_events: tuple[FaultEvent, ...] = ()
    recorder: str = "full"
    node_classes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.jobs:
            raise ValueError("a scenario needs at least one job")
        if self.node_classes:
            object.__setattr__(self, "node_classes", tuple(self.node_classes))
            if len(self.node_classes) != self.n_nodes:
                raise ValueError(
                    f"node_classes names {len(self.node_classes)} node(s) "
                    f"but n_nodes={self.n_nodes}"
                )
            for name in self.node_classes:
                if name not in NODE_CLASSES:
                    raise ValueError(
                        f"unknown node class {name!r}; valid: "
                        f"{', '.join(sorted(NODE_CLASSES))}"
                    )
        for ev in self.fault_events:
            if ev.node_id >= self.n_nodes:
                raise ValueError(
                    f"fault event targets node {ev.node_id} of {self.n_nodes}"
                )

    # ---------------------------------------------------------- hardware
    def roster(self) -> tuple[NodeSpec, ...] | None:
        """Per-node specs, or ``None`` for default homogeneous hardware."""
        if not self.node_classes:
            return None
        return roster_from_classes(self.node_classes)

    @property
    def heterogeneous(self) -> bool:
        """True when the named classes actually mix hardware."""
        return len(set(self.node_classes)) > 1

    # ---------------------------------------------------------- engine I/O
    def specs(
        self,
        *,
        job_ids_from: int = 1,
        job_ids: Sequence[int] | None = None,
    ) -> list[JobSpec]:
        """Engine job specs with deterministic sequential ids.

        ``job_ids`` overrides the sequential assignment (same length as
        :attr:`jobs`) — the id-permutation relation uses this to submit
        identical work under relabelled ids.
        """
        if job_ids is None:
            job_ids = range(job_ids_from, job_ids_from + len(self.jobs))
        elif len(job_ids) != len(self.jobs):
            raise ValueError("job_ids must match the number of jobs")
        return [
            JobSpec(
                instance=job.instance,
                config=job.config,
                job_id=jid,
                submit_time=job.submit_time,
            )
            for jid, job in zip(job_ids, self.jobs)
        ]

    def plan(self) -> InjectionPlan:
        return InjectionPlan(events=self.fault_events)

    @property
    def horizon_hint(self) -> float:
        """A horizon safely past all arrivals (used for plan generation)."""
        return max(j.submit_time for j in self.jobs) + _HORIZON_PAD_S

    # ---------------------------------------------------------- transforms
    def with_jobs(self, jobs: Iterable[ScenarioJob]) -> "Scenario":
        return replace(self, jobs=tuple(jobs))

    def without_job(self, index: int) -> "Scenario":
        jobs = self.jobs[:index] + self.jobs[index + 1 :]
        return replace(self, jobs=jobs)

    def with_nodes(self, n_nodes: int) -> "Scenario":
        events = tuple(e for e in self.fault_events if e.node_id < n_nodes)
        classes = self.node_classes[:n_nodes] if self.node_classes else ()
        if classes and len(classes) < n_nodes:
            # Growing an annotated cluster: new nodes repeat the last
            # named class so the roster stays fully specified.
            classes += (self.node_classes[-1],) * (n_nodes - len(classes))
        return replace(
            self, n_nodes=n_nodes, fault_events=events, node_classes=classes
        )

    def without_faults(self) -> "Scenario":
        return replace(self, fault_events=())

    def homogenised(self) -> "Scenario":
        """This scenario on default homogeneous hardware.

        The shrinker's heterogeneity-collapse step: if a failure still
        reproduces without the mixed roster, the roster was irrelevant
        and the minimised repro should not carry it.
        """
        return replace(self, node_classes=())

    # ------------------------------------------------------- serialisation
    def to_source(self, *, indent: str = "    ") -> str:
        """A Python expression that reconstructs this scenario exactly.

        Floats are rendered with :func:`repr`, which round-trips
        bit-for-bit, so the reconstructed scenario is byte-identical.
        """
        lines = [f"Scenario("]
        lines.append(f"{indent}n_nodes={self.n_nodes},")
        lines.append(f"{indent}jobs=(")
        for job in self.jobs:
            lines.append(f"{indent}{indent}{job.to_source()},")
        lines.append(f"{indent}),")
        if self.fault_events:
            lines.append(f"{indent}fault_events=(")
            for ev in self.fault_events:
                lines.append(
                    f"{indent}{indent}FaultEvent({ev.time!r}, {ev.kind!r}, "
                    f"{ev.node_id}, severity={ev.severity!r}, pick={ev.pick!r}),"
                )
            lines.append(f"{indent}),")
        if self.recorder != "full":
            lines.append(f"{indent}recorder={self.recorder!r},")
        if self.node_classes:
            rendered = ", ".join(repr(c) for c in self.node_classes)
            trailing = "," if len(self.node_classes) == 1 else ""
            lines.append(f"{indent}node_classes=({rendered}{trailing}),")
        lines.append(")")
        return "\n".join(lines)


@dataclass
class ScenarioRun:
    """What one engine execution of a scenario produced."""

    scenario: Scenario
    cluster: ClusterEngine
    makespan: float
    total_energy: float
    edp: float
    #: (label, node_id, start, finish, energy) per completion, in order.
    rows: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    @property
    def job_energies(self) -> dict[str, float]:
        return {label: energy for label, _n, _s, _f, energy in self.rows}


def run_scenario(
    scenario: Scenario,
    *,
    install_injector: bool | None = None,
    job_ids: Sequence[int] | None = None,
) -> ScenarioRun:
    """Execute a scenario on a fresh cluster and summarise it.

    ``install_injector`` defaults to "only when the scenario carries
    fault events"; pass ``True`` to force an (empty-plan) injector —
    the zero-rate transparency relation compares exactly that against
    the uninstrumented run.  ``job_ids`` relabels the jobs without
    changing submission order (see :meth:`Scenario.specs`).
    """
    cluster = ClusterEngine(
        scenario.n_nodes,
        recorder=scenario.recorder,
        roster=scenario.roster(),
    )
    for spec in scenario.specs(job_ids=job_ids):
        cluster.submit(spec)
    if install_injector is None:
        install_injector = bool(scenario.fault_events)
    if install_injector:
        FaultInjector(cluster, scenario.plan()).install()
    results = cluster.run()
    makespan = cluster.makespan
    return ScenarioRun(
        scenario=scenario,
        cluster=cluster,
        makespan=makespan,
        total_energy=cluster.total_energy(makespan),
        edp=cluster.edp(),
        rows=[
            (r.spec.label, r.node_id, r.start_time, r.finish_time, r.energy_joules)
            for r in results
        ],
    )


# -------------------------------------------------------- standard matrices
#: One representative mid-grid configuration per application class —
#: enough knob diversity to exercise waves, disk extents and DVFS.
_MATRIX_CONFIGS: tuple[tuple[float, int, int], ...] = (
    (1.2 * GHZ, 128 * MB, 2),
    (2.0 * GHZ, 256 * MB, 3),
    (2.4 * GHZ, 512 * MB, 4),
)


def _job(code: str, size: int, knobs: tuple[float, int, int], t: float = 0.0) -> ScenarioJob:
    f, b, m = knobs
    return ScenarioJob(
        code=code, data_bytes=size, frequency=f, block_size=b,
        n_mappers=m, submit_time=t,
    )


def oracle_matrix(codes: Sequence[str] = ALL_APPS) -> list[Scenario]:
    """The degenerate-scenario matrix every oracle check must pass.

    Per application: single-job runs across the knob grid (on one node
    and with an idle second node), a symmetric co-located pair, a
    two-job fluid-share pair against a rotated partner, and a
    two-job sequential chain.  Every scenario here is analytically
    solvable by :mod:`repro.conformance.oracles`.
    """
    from repro.conformance.oracles import oracle_expectation

    scenarios: list[Scenario] = []
    codes = tuple(codes)
    for i, code in enumerate(codes):
        partner = codes[(i + 1) % len(codes)]
        for knobs in _MATRIX_CONFIGS:
            # Single job, one node; and the same job with an idle node
            # watching (pins the idle-power term of cluster energy).
            scenarios.append(Scenario(1, (_job(code, 1 * GB, knobs),)))
            scenarios.append(Scenario(2, (_job(code, 5 * GB, knobs),)))
        # Deferred single arrival: idle lead-in energy.
        scenarios.append(
            Scenario(1, (_job(code, 1 * GB, _MATRIX_CONFIGS[0], t=120.0),))
        )
        # Symmetric co-location: two identical jobs sharing the node
        # (solved as a fluid pair with a zero-length tail), and three
        # identical jobs (the k-way symmetric closed form).
        scenarios.append(
            Scenario(
                1,
                (
                    _job(code, 1 * GB, _MATRIX_CONFIGS[0]),
                    _job(code, 1 * GB, _MATRIX_CONFIGS[0]),
                ),
            )
        )
        scenarios.append(
            Scenario(1, tuple(_job(code, 1 * GB, _MATRIX_CONFIGS[0]) for _ in range(3)))
        )
        # Two-job fluid share: different apps, different knobs.
        scenarios.append(
            Scenario(
                1,
                (
                    _job(code, 5 * GB, _MATRIX_CONFIGS[1]),
                    _job(partner, 1 * GB, _MATRIX_CONFIGS[0]),
                ),
            )
        )
    # Over-committed simultaneous pairs: FIFO queueing on one node,
    # independent placement with two.
    big = (2.0 * GHZ, 256 * MB, 5)
    for n_nodes in (1, 2):
        scenarios.append(
            Scenario(
                n_nodes,
                (
                    _job(codes[0], 1 * GB, big),
                    _job(codes[1 % len(codes)], 1 * GB, big),
                ),
            )
        )
    # Sequential chains (submit gaps sized by the oracle itself).
    for i in range(0, len(codes), 3):
        code = codes[i]
        partner = codes[(i + 1) % len(codes)]
        first = _job(code, 1 * GB, _MATRIX_CONFIGS[0])
        solo = oracle_expectation(Scenario(1, (first,)))
        assert solo is not None
        second = _job(partner, 1 * GB, _MATRIX_CONFIGS[2], t=solo.makespan + 30.0)
        scenarios.append(Scenario(1, (first, second)))
    return scenarios


#: The two-class roster shapes of the heterogeneous oracle matrix.
_HETERO_ROSTERS: tuple[tuple[str, ...], ...] = (
    ("atom", "xeon"),
    ("xeon", "atom"),
    ("xeon", "xeon"),
)


def hetero_matrix(codes: Sequence[str] = ALL_APPS) -> list[Scenario]:
    """The heterogeneous oracle matrix: ≥100 solvable two-class scenarios.

    Per application and per roster shape (atom+xeon, xeon+atom, and the
    non-default homogeneous xeon+xeon control): a single job landing on
    node 0, a co-located fluid-share pair on node 0, and — on the mixed
    rosters — an over-committed simultaneous pair whose second job
    spills onto node 1's hardware.  Every scenario is analytically
    solvable by :mod:`repro.conformance.oracles` with the roster's own
    specs, so the acceptance gate fails on any scenario the oracle
    cannot solve.
    """
    scenarios: list[Scenario] = []
    codes = tuple(codes)
    for i, code in enumerate(codes):
        partner = codes[(i + 1) % len(codes)]
        for roster in _HETERO_ROSTERS:
            # Single job on node 0 (its hardware class varies by roster).
            for knobs in (_MATRIX_CONFIGS[0], _MATRIX_CONFIGS[2]):
                scenarios.append(
                    Scenario(2, (_job(code, 1 * GB, knobs),),
                             node_classes=roster)
                )
            # Fluid-share pair co-located on node 0.
            scenarios.append(
                Scenario(
                    2,
                    (
                        _job(code, 2 * GB, _MATRIX_CONFIGS[1]),
                        _job(partner, 1 * GB, _MATRIX_CONFIGS[0]),
                    ),
                    node_classes=roster,
                )
            )
        # Over-committed simultaneous pair: job 1 cannot co-fit next to
        # job 0 on node 0 (atom, 8 cores), so first-fit spills it onto
        # node 1 — the one case where node 1's class shows up in the
        # physics rather than only in the idle-power term.
        big = (2.0 * GHZ, 256 * MB, 5)
        scenarios.append(
            Scenario(
                2,
                (_job(code, 1 * GB, big), _job(partner, 1 * GB, big)),
                node_classes=("atom", "xeon"),
            )
        )
        # Deferred single arrival on a mixed roster: idle lead-in energy
        # now sums two different idle powers.
        scenarios.append(
            Scenario(
                2,
                (_job(code, 1 * GB, _MATRIX_CONFIGS[0], t=90.0),),
                node_classes=("xeon", "atom"),
            )
        )
    return scenarios


def registry_scenarios(codes: Sequence[str] = ALL_APPS) -> list[Scenario]:
    """The standard per-application scenarios the relation registry runs on.

    For each of the 11 studied applications: a solo run, a co-located
    mixed pair, and a small multi-node arrival burst — enough shape
    diversity that every registered relation applies to at least one
    scenario per application.
    """
    scenarios: list[Scenario] = []
    codes = tuple(codes)
    for i, code in enumerate(codes):
        partner = codes[(i + 2) % len(codes)]
        scenarios.append(Scenario(1, (_job(code, 5 * GB, _MATRIX_CONFIGS[0]),)))
        scenarios.append(
            Scenario(
                1,
                (
                    _job(code, 1 * GB, _MATRIX_CONFIGS[1]),
                    _job(partner, 1 * GB, _MATRIX_CONFIGS[0]),
                ),
            )
        )
        scenarios.append(
            Scenario(
                2,
                (
                    _job(code, 1 * GB, _MATRIX_CONFIGS[0], t=0.0),
                    _job(partner, 1 * GB, _MATRIX_CONFIGS[1], t=15.0),
                    _job(code, 1 * GB, _MATRIX_CONFIGS[2], t=40.0),
                ),
            )
        )
    return scenarios
