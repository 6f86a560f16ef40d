"""Seeded scenario fuzzer with greedy shrinking and pytest emission.

A random walk over (workload, data size, block size, mappers,
frequency, arrival times, fault plan) space.  Every generated scenario
is executed under the full conformance check battery
(:func:`run_checks`: analytic oracle where solvable, every registered
metamorphic relation, and "the engine must not raise"); the first
failing scenario is greedily shrunk — fewer jobs, fewer nodes, fewer
fault events, simpler knobs — while preserving the *same named check
failure*, and the minimal scenario is rendered as a paste-ready pytest
case so a fuzzer catch becomes a committed regression test in one
copy-paste (see ``docs/TESTING.md``).

Everything is derived from the seed: ``fuzz(budget=N, seed=S)`` is a
pure function of (N, S, engine behaviour) — re-running a reported seed
reproduces the walk exactly.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field, replace

from repro.conformance.oracles import check_oracle
from repro.conformance.relations import RELATIONS, check_relations
from repro.conformance.scenarios import Scenario, ScenarioJob
from repro.faults.plan import FAULT_KINDS, FaultEvent
from repro.utils.units import GB, GHZ, MB
from repro.workloads.registry import ALL_APPS

_FREQUENCIES = (1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ)
_BLOCKS = (64 * MB, 128 * MB, 256 * MB, 512 * MB)
_NODE_CLASS_NAMES = ("atom", "xeon")
#: Fraction of oracle-shaped draws annotated with an explicit roster.
_ROSTER_PROB = 0.25
_MAX_SHRINK_ROUNDS = 64


@dataclass(frozen=True)
class Failure:
    """One named check failure on one scenario."""

    check: str  # e.g. "oracle:makespan", "relation:permute-job-ids"
    message: str


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    seed: int
    budget: int
    executed: int = 0
    #: First failure found (None: the whole budget ran clean).
    failure: Failure | None = None
    #: The scenario that first triggered :attr:`failure`.
    scenario: Scenario | None = None
    #: Greedily minimised scenario still triggering the same check.
    shrunk: Scenario | None = None
    #: Paste-ready pytest regression test for :attr:`shrunk`.
    pytest_source: str | None = None
    #: Shrink steps accepted, for the log.
    shrink_log: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def describe(self) -> str:
        if self.ok:
            return (
                f"fuzz: {self.executed}/{self.budget} scenarios clean "
                f"(seed={self.seed})"
            )
        assert self.failure and self.scenario and self.shrunk
        lines = [
            f"fuzz: FAILURE after {self.executed} scenarios (seed={self.seed})",
            f"  check: {self.failure.check}",
            f"  {self.failure.message}",
            f"  shrunk {len(self.scenario.jobs)} job(s)/"
            f"{self.scenario.n_nodes} node(s)/"
            f"{len(self.scenario.fault_events)} fault(s) -> "
            f"{len(self.shrunk.jobs)}/{self.shrunk.n_nodes}/"
            f"{len(self.shrunk.fault_events)}",
            "",
            "paste-ready regression test:",
            "",
            self.pytest_source or "",
        ]
        return "\n".join(lines)


# ------------------------------------------------------------ generation
def _random_job(rng: random.Random, *, submit_time: float = 0.0) -> ScenarioJob:
    return ScenarioJob(
        code=rng.choice(ALL_APPS),
        data_bytes=rng.randint(1, 6) * GB,
        frequency=rng.choice(_FREQUENCIES),
        block_size=rng.choice(_BLOCKS),
        n_mappers=rng.randint(1, 8),
        submit_time=submit_time,
    )


def _random_faults(
    rng: random.Random, n_nodes: int, horizon: float
) -> tuple[FaultEvent, ...]:
    events = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(FAULT_KINDS)
        node_id = rng.randrange(n_nodes)
        t = round(rng.uniform(0.0, horizon), 3)
        severity = round(rng.uniform(1.5, 4.0), 3) if kind == "straggler" else 1.0
        events.append(
            FaultEvent(
                time=t, kind=kind, node_id=node_id,
                severity=severity, pick=rng.random(),
            )
        )
    events.sort(key=lambda e: e.time)
    return tuple(events)


def _maybe_roster(
    rng: random.Random, scenario: Scenario, *, prob: float = _ROSTER_PROB
) -> Scenario:
    """Annotate ~``prob`` of oracle-shaped draws with a class roster.

    Drawn strictly *after* every other field of the scenario, so
    scenarios that existed before heterogeneity keep byte-identical
    job and fault draws for every historical seed.  (The coin is
    tossed even at ``prob=1.0`` so the downstream draw sequence is
    the same at every probability.)
    """
    if rng.random() >= prob:
        return scenario
    classes = tuple(
        rng.choice(_NODE_CLASS_NAMES) for _ in range(scenario.n_nodes)
    )
    return replace(scenario, node_classes=classes)


def generate_scenario(
    rng: random.Random, *, roster_prob: float = _ROSTER_PROB
) -> Scenario:
    """One random scenario, biased toward oracle-solvable shapes.

    Roughly half the draws land in a class the analytic oracles solve
    (single / simultaneous pair / symmetric / spaced chain), so the
    strongest check — engine vs closed form — fires often; the rest are
    general multi-job, multi-node scenarios (some with fault plans)
    exercised by the metamorphic relations.  Oracle-shaped draws are
    annotated with an explicit class roster with probability
    ``roster_prob`` (the oracles stay exact on mixed two-class
    clusters); ``roster_prob=1.0`` forces a roster onto every
    oracle-shaped draw — the CI heterogeneous smoke — without changing
    any other draw in the sequence.
    """
    shape = rng.choices(
        ("single", "pair", "symmetric", "chain", "general"),
        weights=(20, 15, 10, 10, 45),
    )[0]
    if shape == "single":
        n_nodes = rng.choice((1, 1, 2))
        submit = round(rng.uniform(0.0, 200.0), 3) if rng.random() < 0.4 else 0.0
        return _maybe_roster(
            rng,
            Scenario(n_nodes, (_random_job(rng, submit_time=submit),)),
            prob=roster_prob,
        )
    if shape == "pair":
        a = _random_job(rng)
        b = _random_job(rng)
        return _maybe_roster(
            rng, Scenario(rng.choice((1, 1, 2)), (a, b)), prob=roster_prob
        )
    if shape == "symmetric":
        k = rng.randint(2, 4)
        proto = replace(_random_job(rng), n_mappers=rng.randint(1, 8 // k))
        return _maybe_roster(
            rng, Scenario(1, tuple(proto for _ in range(k))), prob=roster_prob
        )
    if shape == "chain":
        # Arrival gaps sized generously past any plausible completion;
        # the oracle itself verifies the jobs truly never overlap.
        jobs = []
        t = 0.0
        for _ in range(rng.randint(2, 3)):
            jobs.append(_random_job(rng, submit_time=round(t, 3)))
            t += rng.uniform(3000.0, 6000.0)
        return _maybe_roster(rng, Scenario(1, tuple(jobs)), prob=roster_prob)
    n_nodes = rng.randint(1, 4)
    jobs = tuple(
        _random_job(rng, submit_time=round(rng.uniform(0.0, 300.0), 3))
        for _ in range(rng.randint(1, 5))
    )
    scenario = Scenario(n_nodes, jobs)
    if rng.random() < 0.35:
        scenario = replace(
            scenario,
            fault_events=_random_faults(rng, n_nodes, scenario.horizon_hint),
        )
    return scenario


# -------------------------------------------------------------- checking
def _check_backends(
    scenario: Scenario, backends: tuple[str, ...]
) -> list[Failure]:
    """Differential check: alternate backends vs the event engine.

    For each requested non-event backend (``"batch"``), evaluate the
    scenario through :func:`repro.batch.engine.evaluate_scenarios` and
    compare makespan, total energy, EDP, node-0 busy time and every
    per-job energy against the reference event run at the conformance
    tolerance.  A backend outcome that *fell back* to the event engine
    is skipped — it is the reference, there is nothing to diff.
    """
    # Imported lazily: repro.batch.engine itself imports the scenario
    # layer of this package, so a module-level import would cycle.
    from repro.batch.engine import evaluate_scenarios
    from repro.conformance.oracles import REL_TOL, _rel_err

    failures: list[Failure] = []
    names = [b for b in backends if b != "event"]
    if not names:
        return failures
    reference = None
    for name in names:
        [outcome] = evaluate_scenarios([scenario], backend=name)
        if outcome.fallback:
            continue
        if reference is None:
            [reference] = evaluate_scenarios([scenario], backend="event")
        quantities = (
            ("makespan", reference.makespan, outcome.makespan),
            ("total_energy", reference.total_energy, outcome.total_energy),
            ("edp", reference.edp, outcome.edp),
            ("busy_seconds", reference.busy_seconds, outcome.busy_seconds),
        )
        for qty, want, got in quantities:
            err = _rel_err(want, got)
            if err > REL_TOL:
                failures.append(
                    Failure(
                        check=f"backend:{name}:{qty}",
                        message=(
                            f"backend:{name}:{qty}: {name}={got!r} "
                            f"event={want!r} rel_err={err:.3e} "
                            f"(case={outcome.case})"
                        ),
                    )
                )
        for j, (want, got) in enumerate(
            zip(reference.job_energies, outcome.job_energies)
        ):
            err = _rel_err(want, got)
            if err > REL_TOL:
                failures.append(
                    Failure(
                        check=f"backend:{name}:job_energy[{j}]",
                        message=(
                            f"backend:{name}:job_energy[{j}]: {name}={got!r} "
                            f"event={want!r} rel_err={err:.3e} "
                            f"(case={outcome.case})"
                        ),
                    )
                )
    return failures


def run_checks(
    scenario: Scenario,
    *,
    relations: list[str] | None = None,
    backends: tuple[str, ...] = (),
) -> list[Failure]:
    """The full conformance battery on one scenario.

    Order: analytic oracle (when solvable), then the differential
    backend checks (when ``backends`` requests any), then every
    requested metamorphic relation.  An exception anywhere is itself a
    failure (check name ``crash:<ExceptionType>``) — the engine must
    not raise on any valid scenario.
    """
    failures: list[Failure] = []
    try:
        for message in check_oracle(scenario):
            check, _, _detail = message.partition(": ")
            failures.append(Failure(check=check, message=message))
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        failures.append(
            Failure(
                check=f"crash:{type(exc).__name__}",
                message=traceback.format_exc(limit=3).strip(),
            )
        )
    if backends:
        try:
            failures.extend(_check_backends(scenario, tuple(backends)))
        except Exception as exc:  # noqa: BLE001
            failures.append(
                Failure(
                    check=f"crash:{type(exc).__name__}",
                    message=traceback.format_exc(limit=3).strip(),
                )
            )
    names = list(RELATIONS) if relations is None else relations
    for name in names:
        try:
            result = check_relations(scenario, [name])[0]
            if result.applicable and result.failures:
                failures.append(
                    Failure(check=f"relation:{name}", message=result.describe())
                )
        except Exception as exc:  # noqa: BLE001
            failures.append(
                Failure(
                    check=f"crash:{type(exc).__name__}",
                    message=traceback.format_exc(limit=3).strip(),
                )
            )
    return failures


def _still_fails(
    scenario: Scenario, check: str, *, backends: tuple[str, ...] = ()
) -> bool:
    try:
        return any(
            f.check == check for f in run_checks(scenario, backends=backends)
        )
    except Exception:  # pragma: no cover - run_checks catches internally
        return False


# ------------------------------------------------------------- shrinking
def shrink(
    scenario: Scenario,
    check: str,
    *,
    log: list[str] | None = None,
    backends: tuple[str, ...] = (),
) -> Scenario:
    """Greedily minimise ``scenario`` while check ``check`` still fails.

    Passes, largest wins first: drop whole jobs, collapse the cluster,
    collapse an explicit node-class roster, drop fault events, then
    simplify per-job knobs (zero the arrival time, shrink the input,
    fewest mappers).  Each candidate is
    accepted only if the *same named check* still fails, so shrinking
    cannot wander onto a different defect.  Deterministic; bounded by
    ``_MAX_SHRINK_ROUNDS`` fixpoint rounds.  ``backends`` must match
    the :func:`run_checks` call that caught the failure, or a
    ``backend:*`` check can never reproduce.
    """
    log = log if log is not None else []

    def attempt(candidate: Scenario, note: str) -> bool:
        nonlocal scenario
        if _still_fails(candidate, check, backends=backends):
            scenario = candidate
            log.append(note)
            return True
        return False

    for _round in range(_MAX_SHRINK_ROUNDS):
        changed = False
        # 1. Fewer jobs.
        i = 0
        while len(scenario.jobs) > 1 and i < len(scenario.jobs):
            if attempt(scenario.without_job(i), f"dropped job {i}"):
                changed = True
            else:
                i += 1
        # 2. Fewer nodes.
        while scenario.n_nodes > 1 and attempt(
            scenario.with_nodes(scenario.n_nodes - 1), "removed a node"
        ):
            changed = True
        # 3. Collapse an explicit roster to default hardware (rejected
        # automatically when the failure needs the mixed classes).
        if scenario.node_classes and attempt(
            scenario.homogenised(), "collapsed roster"
        ):
            changed = True
        # 4. Fewer fault events.
        i = 0
        while i < len(scenario.fault_events):
            fewer = replace(
                scenario,
                fault_events=scenario.fault_events[:i]
                + scenario.fault_events[i + 1 :],
            )
            if attempt(fewer, f"dropped fault event {i}"):
                changed = True
            else:
                i += 1
        # 5. Simpler job knobs — always derived from the *current* job
        # so an accepted simplification is never reverted by the next.
        simplifications = (
            ("submit_time", 0.0, "submit_time -> 0"),
            ("data_bytes", 1 * GB, "data -> 1 GB"),
            ("n_mappers", 1, "mappers -> 1"),
            ("frequency", _FREQUENCIES[0], "slowest clock"),
            ("block_size", _BLOCKS[-1], "largest block"),
        )
        for i in range(len(scenario.jobs)):
            for field_name, value, note in simplifications:
                current = scenario.jobs[i]
                if getattr(current, field_name) == value:
                    continue
                jobs = list(scenario.jobs)
                jobs[i] = replace(current, **{field_name: value})
                if attempt(scenario.with_jobs(jobs), f"job {i}: {note}"):
                    changed = True
        if not changed:
            break
    return scenario


# -------------------------------------------------------------- emission
def emit_pytest(scenario: Scenario, failure: Failure, seed: int) -> str:
    """A runnable pytest regression test reproducing ``failure``.

    The scenario is reconstructed from exact float reprs, so the test
    exercises bit-for-bit the same inputs the fuzzer minimised.
    """
    needs_faults = bool(scenario.fault_events)
    imports = ["from repro.conformance import run_checks, Scenario, ScenarioJob"]
    if needs_faults:
        imports.append("from repro.faults.plan import FaultEvent")
    # Indent the expression's continuation lines to function-body depth.
    first, *rest = scenario.to_source().splitlines()
    body = "\n".join([first] + ["    " + line for line in rest])
    slug = failure.check.replace(":", "_").replace("-", "_")
    return "\n".join(
        imports
        + [
            "",
            "",
            f"def test_fuzz_regression_{slug}():",
            f'    """Minimised by `python -m repro fuzz --seed {seed}`.',
            "",
            f"    Failed check: {failure.check}",
            '    """',
            f"    scenario = {body}",
            "    failures = run_checks(scenario)",
            "    assert not failures, [f.message for f in failures]",
            "",
        ]
    )


# ------------------------------------------------------------ the fuzzer
def fuzz(
    *,
    budget: int,
    seed: int,
    relations: list[str] | None = None,
    backends: tuple[str, ...] = (),
    stop_on_failure: bool = True,
    roster_prob: float = _ROSTER_PROB,
) -> FuzzReport:
    """Run up to ``budget`` random scenarios through the check battery.

    Stops at the first failure (after shrinking it and rendering the
    regression test), or reports a clean run.  Fully determined by
    ``seed``: scenario ``i`` is generated from ``Random(f"{seed}:{i}")``
    independently of the preceding scenarios.  ``backends`` adds the
    differential backend checks (e.g. ``("batch",)``) to the battery
    on every scenario.  ``roster_prob`` overrides the fraction of
    oracle-shaped draws carrying an explicit node-class roster
    (``1.0`` = the heterogeneous smoke; other draws are unchanged).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = FuzzReport(seed=seed, budget=budget)
    for i in range(budget):
        rng = random.Random(f"{seed}:{i}")
        scenario = generate_scenario(rng, roster_prob=roster_prob)
        report.executed = i + 1
        failures = run_checks(scenario, relations=relations, backends=backends)
        if not failures:
            continue
        failure = failures[0]
        report.failure = failure
        report.scenario = scenario
        log: list[str] = []
        report.shrunk = shrink(scenario, failure.check, log=log, backends=backends)
        report.shrink_log = log
        shrunk_failures = [
            f
            for f in run_checks(
                report.shrunk, relations=relations, backends=backends
            )
            if f.check == failure.check
        ]
        report.failure = shrunk_failures[0] if shrunk_failures else failure
        report.pytest_source = emit_pytest(report.shrunk, report.failure, seed)
        if stop_on_failure:
            break
    return report
