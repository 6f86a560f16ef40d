"""Batched scenario evaluation: the event engine or the vectorised solvers.

:func:`evaluate_scenarios` is the batch layer's front door: it takes a
list of conformance scenarios and a ``backend`` —

``"event"``
    one discrete-event engine run per scenario (the reference);
``"batch"``
    scenarios are classified, grouped by class, packed into
    :class:`~repro.batch.pack.ScenarioBatch` buffers, and each class is
    solved with *one* vectorised pass over the cost kernel, fed
    :class:`~repro.batch.kernel.ProfileSoA` lanes.

The batch solvers mirror the engine's fluid semantics exactly — the
same cost kernel arithmetic, the same segment composition the
conformance oracles derive from the model spec — so on every
oracle-solvable scenario class the batch backend agrees with the event
engine and the oracles to well under 1e-9
(``tests/test_batch_equivalence.py``).  Scenario shapes outside the
solvable classes (fault plans, general multi-node arrival tangles,
co-resident sets of 8+ jobs) fall back to the event engine per
scenario, counted on the telemetry object — a fallback is honest work,
never a silent wrong answer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.batch.kernel import (
    NodeSoA,
    ProfileSoA,
    colocation_context_soa,
    hetero_total_energy,
    node_state_soa,
    solo_disk_scale,
)
from repro.batch.pack import ScenarioBatch
from repro.conformance.scenarios import Scenario
from repro.faults.injector import FaultInjector
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.engine import ClusterEngine
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import standalone_metrics

#: Backends callers may request.
BACKENDS = ("event", "batch")

#: Minimum arrival gap past the predecessor's completion for the chain
#: solver (mirrors the oracle's ``_CHAIN_MARGIN_S``); closer arrivals
#: overlap in the engine and fall back to it.
_CHAIN_MARGIN_S = 1e-6

#: Scenario classes the closed-form solvers handle; anything else runs
#: on the event engine.
SOLVABLE_CASES = ("single", "pair", "queued", "parallel", "symmetric", "chain")


class BatchOutcome(NamedTuple):
    """One scenario's results, whichever backend produced them.

    A ``NamedTuple`` rather than a dataclass: the batch path constructs
    thousands of these per call and tuple construction stays off the
    profile where frozen-dataclass ``__init__`` does not.
    """

    case: str  # classification label ("event" = unsolvable shape)
    backend: str  # backend that actually produced the numbers
    fallback: bool  # True when a non-event request ran on the engine
    makespan: float
    total_energy: float
    edp: float
    busy_seconds: float  # node 0 busy time
    job_energies: tuple[float, ...]  # per job, scenario order


def classify(scenario: Scenario, *, node: NodeSpec = ATOM_C2758) -> str:
    """Which closed-form solver covers ``scenario`` (``"event"``: none).

    Mirrors the oracle dispatch of
    :func:`repro.conformance.oracles.oracle_expectation`, plus one
    batch-specific guard: co-resident sets of 8+ jobs hit NumPy's
    pairwise summation inside the engine's scalar context and are
    routed to the event engine to preserve bit-level agreement.
    ``"chain"`` is a *candidate* — the arrival-gap condition needs the
    solved completion times, so the solver validates it numerically and
    falls back on violation.

    A scenario with an explicit node-class roster overrides ``node``
    with its own node 0 (first-fit is class-oblivious-leftmost, so
    co-fit keys on node 0's core count); a spill job that does not fit
    node 1's cores either is not closed-form solvable.
    """
    if scenario.fault_events:
        return "event"
    roster = scenario.roster()
    if roster is not None:
        node = roster[0]
    jobs = scenario.jobs
    if len(jobs) == 1:
        return "single"
    if len(jobs) >= 8:
        return "event"
    submits = {j.submit_time for j in jobs}
    if len(submits) == 1:
        total_mappers = sum(j.n_mappers for j in jobs)
        if len(jobs) == 2:
            if total_mappers <= node.n_cores:
                return "pair"
            if scenario.n_nodes == 1:
                return "queued"
            if roster is not None and jobs[1].n_mappers > roster[1].n_cores:
                return "event"
            return "parallel"
        if total_mappers <= node.n_cores and len({j.identity() for j in jobs}) == 1:
            return "symmetric"
        return "event"
    return "chain"


# --------------------------------------------------------- event backend
def _run_event(
    scenario: Scenario,
    *,
    node: NodeSpec,
    constants: SimConstants,
    case: str,
    fallback: bool,
) -> BatchOutcome:
    """One reference discrete-event run, summarised as a BatchOutcome.

    Mirrors :func:`repro.conformance.scenarios.run_scenario` but passes
    ``node``/``constants`` through to the engine so non-default
    hardware evaluates consistently across backends.  A scenario's own
    node-class roster, when named, takes precedence over ``node``.
    """
    cluster = ClusterEngine(
        scenario.n_nodes,
        node,
        constants=constants,
        recorder=scenario.recorder,
        roster=scenario.roster(),
    )
    specs = scenario.specs()
    for spec in specs:
        cluster.submit(spec)
    if scenario.fault_events:
        FaultInjector(cluster, scenario.plan()).install()
    results = cluster.run()
    makespan = cluster.makespan
    by_label = {r.spec.label: r.energy_joules for r in results}
    busy = cluster.conformance_snapshot()["nodes"][0]["busy_seconds"]
    return BatchOutcome(
        case=case,
        backend="event",
        fallback=fallback,
        makespan=makespan,
        total_energy=cluster.total_energy(makespan),
        edp=cluster.edp(),
        busy_seconds=busy,
        job_energies=tuple(by_label[s.label] for s in specs),
    )


# --------------------------------------------------------- batch backend
def _single_state_batch(metrics, node: NodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(stretch, watts) of one job alone over (S,) lanes — the engine's
    single-job segment state."""
    bw = node.membw.achievable_bw
    s = np.maximum(
        np.maximum(np.maximum(1.0, metrics.u_disk), metrics.u_net),
        metrics.mem_demand / bw,
    )
    pm = node.power
    watts = (
        pm.idle_power
        + metrics.core_power / s
        + pm.mem_max_power * np.minimum(metrics.mem_demand / s / bw, 1.0)
        + pm.disk_max_power * np.minimum(metrics.u_disk / s, 1.0)
    )
    return s, watts


def _eval_solo_column(
    batch: ScenarioBatch,
    base: ProfileSoA,
    rows: np.ndarray,
    cols: np.ndarray,
    node: NodeSpec,
    constants: SimConstants,
):
    """Evaluate job slot ``cols[i]`` of scenario ``rows[i]`` alone."""
    p = base.take(batch.profile_idx[rows, cols])
    m = batch.n_mappers[rows, cols]
    dscale = solo_disk_scale(p, m, node=node, constants=constants)
    metrics = standalone_metrics(
        p,
        batch.data_bytes[rows, cols],
        batch.frequency[rows, cols],
        batch.block_size[rows, cols],
        m,
        node=node,
        constants=constants,
        disk_traffic_scale=dscale,
    )
    return metrics


def _solve_chain_batch(
    batch: ScenarioBatch,
    *,
    node: NodeSpec,
    constants: SimConstants,
    roster: tuple[NodeSpec, ...] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Single jobs and back-to-back chains, one slot column at a time.

    Returns the result columns plus a per-scenario violation flag for
    arrivals inside the running job's window (those re-run on the event
    engine — the closed form does not cover overlap).
    """
    S, K = batch.data_bytes.shape
    mask = batch.mask
    base = batch.base_soa()
    rows = np.arange(S)
    submit_key = np.where(mask, batch.submit_time, np.inf)
    order = np.argsort(submit_key, axis=1, kind="stable")

    clock = np.zeros(S)
    busy = np.zeros(S)
    busy_energy = np.zeros(S)
    makespan = np.zeros(S)
    violated = np.zeros(S, dtype=bool)
    started = np.zeros(S, dtype=bool)
    job_energy = np.zeros((S, K))
    for j in range(K):
        cols = order[:, j]
        active = mask[rows, cols]
        if not np.any(active):
            break
        submit = batch.submit_time[rows, cols]
        violated |= active & started & (submit < clock + _CHAIN_MARGIN_S)
        start = np.maximum(submit, clock)
        metrics = _eval_solo_column(batch, base, rows, cols, node, constants)
        s, w = _single_state_batch(metrics, node)
        wall = metrics.duration * s
        end = start + wall
        job_energy[rows, cols] = np.where(active, w * wall, 0.0)
        busy = busy + np.where(active, wall, 0.0)
        busy_energy = busy_energy + np.where(active, w * wall, 0.0)
        makespan = np.where(active, end, makespan)
        clock = np.where(active, end, clock)
        started |= active
    if roster is not None:
        total = hetero_total_energy(
            busy_energy, makespan, NodeSoA.from_specs(roster), {0: busy}
        )
    else:
        idle = node.power.idle_power
        total = busy_energy + idle * (batch.n_nodes * makespan - busy)
    return (
        {
            "makespan": makespan,
            "total_energy": total,
            "edp": total * makespan,
            "busy_seconds": busy,
            "job_energy": job_energy,
        },
        violated,
    )


def _solve_pair_batch(
    batch: ScenarioBatch,
    *,
    node: NodeSpec,
    constants: SimConstants,
    roster: tuple[NodeSpec, ...] | None = None,
) -> dict[str, np.ndarray]:
    """Two simultaneous co-fitting jobs: overlap + recontexted solo tail."""
    S = len(batch)
    rows = np.arange(S)
    mask = batch.mask
    p = batch.profile_soa()
    ctx_mpki, ctx_disk, ctx_extra = colocation_context_soa(
        p, batch.n_mappers, mask, node=node, constants=constants
    )
    pair = standalone_metrics(
        p,
        batch.data_bytes,
        batch.frequency,
        batch.block_size,
        batch.n_mappers,
        node=node,
        constants=constants,
        mpki_scale=ctx_mpki,
        disk_traffic_scale=ctx_disk,
        extra_streams=ctx_extra,
    )
    s_pair, w_pair = node_state_soa(pair, mask, node=node)
    d0 = pair.duration[:, 0]
    d1 = pair.duration[:, 1]
    short_is_0 = d0 <= d1
    d_short = np.where(short_is_0, d0, d1)
    d_long = np.where(short_is_0, d1, d0)
    long_col = np.where(short_is_0, 1, 0)

    t0 = batch.submit_time[:, 0]
    t_overlap = d_short * s_pair
    first_done = t0 + t_overlap
    half = w_pair * t_overlap / 2.0

    solo = _eval_solo_column(batch, batch.base_soa(), rows, long_col, node, constants)
    s_solo, w_solo = _single_state_batch(solo, node)
    # fraction_left is exactly 0.0 for equal durations, so the tail
    # terms vanish without a branch (the oracle's `if` made explicit).
    fraction_left = (d_long - d_short) / d_long
    t_tail = fraction_left * solo.duration * s_solo

    makespan = first_done + t_tail
    busy = t_overlap + t_tail
    busy_energy = w_pair * t_overlap + w_solo * t_tail
    if roster is not None:
        total = hetero_total_energy(
            busy_energy, makespan, NodeSoA.from_specs(roster), {0: busy}
        )
    else:
        idle = node.power.idle_power
        total = busy_energy + idle * (batch.n_nodes * makespan - busy)
    tail_energy = w_solo * t_tail
    job_energy = np.empty((S, 2))
    job_energy[:, 0] = np.where(short_is_0, half, half + tail_energy)
    job_energy[:, 1] = np.where(short_is_0, half + tail_energy, half)
    return {
        "makespan": makespan,
        "total_energy": total,
        "edp": total * makespan,
        "busy_seconds": busy,
        "job_energy": job_energy,
    }


def _solve_queued_batch(
    batch: ScenarioBatch,
    *,
    node: NodeSpec,
    constants: SimConstants,
    roster: tuple[NodeSpec, ...] | None = None,
) -> dict[str, np.ndarray]:
    """Two simultaneous non-co-fitting jobs on one node: FIFO back-to-back."""
    S = len(batch)
    rows = np.arange(S)
    base = batch.base_soa()
    t0 = batch.submit_time[:, 0]
    ma = _eval_solo_column(batch, base, rows, np.zeros(S, dtype=np.intp), node, constants)
    sa, wa = _single_state_batch(ma, node)
    mb = _eval_solo_column(batch, base, rows, np.ones(S, dtype=np.intp), node, constants)
    sb, wb = _single_state_batch(mb, node)
    finish_a = t0 + ma.duration * sa
    finish_b = finish_a + mb.duration * sb
    e_a = wa * (finish_a - t0)
    e_b = wb * (finish_b - finish_a)
    busy = (finish_a - t0) + (finish_b - finish_a)
    busy_energy = e_a + e_b
    if roster is not None:
        total = hetero_total_energy(
            busy_energy, finish_b, NodeSoA.from_specs(roster), {0: busy}
        )
    else:
        idle = node.power.idle_power
        total = busy_energy + idle * (batch.n_nodes * finish_b - busy)
    return {
        "makespan": finish_b,
        "total_energy": total,
        "edp": total * finish_b,
        "busy_seconds": busy,
        "job_energy": np.stack([e_a, e_b], axis=1),
    }


def _solve_parallel_batch(
    batch: ScenarioBatch,
    *,
    node: NodeSpec,
    constants: SimConstants,
    roster: tuple[NodeSpec, ...] | None = None,
) -> dict[str, np.ndarray]:
    """Two simultaneous non-co-fitting jobs, a node each.

    On a mixed roster job 1 evaluates against node 1's hardware — the
    one solvable shape where a second node class enters the physics
    rather than only the idle-power fold.
    """
    S = len(batch)
    rows = np.arange(S)
    base = batch.base_soa()
    node1 = roster[1] if roster is not None else node
    t0 = batch.submit_time[:, 0]
    m0 = _eval_solo_column(batch, base, rows, np.zeros(S, dtype=np.intp), node, constants)
    s0, w0 = _single_state_batch(m0, node)
    m1 = _eval_solo_column(batch, base, rows, np.ones(S, dtype=np.intp), node1, constants)
    s1, w1 = _single_state_batch(m1, node1)
    wall0 = m0.duration * s0
    wall1 = m1.duration * s1
    e0 = w0 * wall0
    e1 = w1 * wall1
    makespan = np.maximum(t0 + wall0, t0 + wall1)
    busy_energy = e0 + e1
    busy_all = wall0 + wall1
    if roster is not None:
        total = hetero_total_energy(
            busy_energy,
            makespan,
            NodeSoA.from_specs(roster),
            {0: wall0, 1: wall1},
        )
    else:
        idle = node.power.idle_power
        total = busy_energy + idle * (batch.n_nodes * makespan - busy_all)
    return {
        "makespan": makespan,
        "total_energy": total,
        "edp": total * makespan,
        "busy_seconds": wall0,  # node 0 runs job 0
        "job_energy": np.stack([e0, e1], axis=1),
    }


def _solve_symmetric_batch(
    batch: ScenarioBatch,
    *,
    node: NodeSpec,
    constants: SimConstants,
    roster: tuple[NodeSpec, ...] | None = None,
) -> dict[str, np.ndarray]:
    """k identical simultaneous jobs: one shared phase, even energy split."""
    S, K = batch.data_bytes.shape
    mask = batch.mask
    p = batch.profile_soa()
    ctx_mpki, ctx_disk, ctx_extra = colocation_context_soa(
        p, batch.n_mappers, mask, node=node, constants=constants
    )
    metrics = standalone_metrics(
        p,
        batch.data_bytes,
        batch.frequency,
        batch.block_size,
        batch.n_mappers,
        node=node,
        constants=constants,
        mpki_scale=ctx_mpki,
        disk_traffic_scale=ctx_disk,
        extra_streams=ctx_extra,
    )
    s, w = node_state_soa(metrics, mask, node=node)
    t0 = batch.submit_time[:, 0]
    wall = metrics.duration[:, 0] * s
    k = batch.n_jobs.astype(float)
    makespan = t0 + wall
    busy_energy = w * wall
    if roster is not None:
        total = hetero_total_energy(
            busy_energy, makespan, NodeSoA.from_specs(roster), {0: wall}
        )
    else:
        idle = node.power.idle_power
        total = busy_energy + idle * (batch.n_nodes * makespan - wall)
    per_job = w * wall / k
    job_energy = np.where(mask, per_job[:, None], 0.0)
    return {
        "makespan": makespan,
        "total_energy": total,
        "edp": total * makespan,
        "busy_seconds": wall,
        "job_energy": job_energy,
    }


_BATCH_SOLVERS = {
    "single": _solve_chain_batch,
    "chain": _solve_chain_batch,
    "pair": _solve_pair_batch,
    "queued": _solve_queued_batch,
    "parallel": _solve_parallel_batch,
    "symmetric": _solve_symmetric_batch,
}


def _columns_to_outcomes(
    scenarios: list[Scenario],
    case: str,
    cols: dict[str, np.ndarray],
) -> list[BatchOutcome]:
    # Bulk-convert once (C loop) instead of one numpy-scalar cast per
    # field per scenario — this function is on the throughput path.
    makespan = cols["makespan"].tolist()
    total = cols["total_energy"].tolist()
    edp = cols["edp"].tolist()
    busy = cols["busy_seconds"].tolist()
    job_energy = cols["job_energy"].tolist()
    return [
        BatchOutcome(
            case,
            "batch",
            False,
            makespan[i],
            total[i],
            edp[i],
            busy[i],
            tuple(job_energy[i][: len(scenario.jobs)]),
        )
        for i, scenario in enumerate(scenarios)
    ]


def evaluate_scenarios(
    scenarios: list[Scenario],
    *,
    backend: str = "batch",
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    telemetry=None,
) -> list[BatchOutcome]:
    """Evaluate scenarios on the requested backend (see module doc).

    Results come back in input order whatever the internal grouping.
    ``telemetry``, when given, is a
    :class:`repro.telemetry.counters.BatchTelemetry` and is updated in
    place.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {', '.join(BACKENDS)}")
    outcomes: list[BatchOutcome | None] = [None] * len(scenarios)

    def note(outcome: BatchOutcome) -> BatchOutcome:
        if telemetry is not None:
            telemetry.record_scenario(outcome.case, outcome.backend, outcome.fallback)
        return outcome

    if backend == "event":
        for i, s in enumerate(scenarios):
            outcomes[i] = note(
                _run_event(
                    s, node=node, constants=constants,
                    case=classify(s, node=node), fallback=False,
                )
            )
        return outcomes  # type: ignore[return-value]

    def roster_args(s: Scenario) -> tuple[NodeSpec, tuple[NodeSpec, ...] | None]:
        """(busy-node spec, mixed roster or None) for one scenario.

        A homogeneous explicit roster (all nodes one class) solves on
        the legacy single-node fold with that class's spec — same
        arithmetic shape as today, different constants — while a
        genuinely mixed roster switches the solvers to per-node idle
        accumulation.
        """
        roster = s.roster()
        if roster is None:
            return node, None
        return roster[0], (roster if len(set(roster)) > 1 else None)

    # backend == "batch": group by (class, roster) — every scenario of a
    # group shares one node-class tuple, so the whole group still solves
    # in one vectorised pass with group-constant node hardware.
    by_group: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    cases = [classify(s, node=node) for s in scenarios]
    for i, (s, case) in enumerate(zip(scenarios, cases)):
        if case in _BATCH_SOLVERS:
            by_group.setdefault((case, s.node_classes), []).append(i)
        else:
            outcomes[i] = note(
                _run_event(s, node=node, constants=constants, case=case, fallback=True)
            )
    for case, classes in sorted(by_group):
        idxs = by_group[(case, classes)]
        group = [scenarios[i] for i in idxs]
        node_g, mixed = roster_args(group[0])
        packed = ScenarioBatch.from_scenarios(group)
        if telemetry is not None:
            telemetry.record_kernel(len(group))
        solver = _BATCH_SOLVERS[case]
        if solver is _solve_chain_batch:
            cols, violated = solver(
                packed, node=node_g, constants=constants, roster=mixed
            )
        else:
            cols = solver(packed, node=node_g, constants=constants, roster=mixed)
            violated = np.zeros(len(group), dtype=bool)
        solved = _columns_to_outcomes(group, case, cols)
        for local, i in enumerate(idxs):
            if violated[local]:
                outcomes[i] = note(
                    _run_event(
                        scenarios[i], node=node, constants=constants,
                        case=case, fallback=True,
                    )
                )
            else:
                outcomes[i] = note(solved[local])
    return outcomes  # type: ignore[return-value]
