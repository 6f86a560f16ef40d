"""Sharded execution of independent simulation work across processes.

Three kinds of work in this repository are embarrassingly parallel at
the *batch* level (not merely the sweep-grid level PR 1 parallelised):

* **scenario batches** — :func:`repro.batch.engine.evaluate_scenarios`
  over thousands of independent scenarios;
* **Monte-Carlo fault replicas** — the same fault-tolerance sweep
  replayed under many injection seeds;
* **multi-rack sweep grids** — one steady-state cluster run per
  cluster size (the fig9 scalability / executor-knee sweep).

Each driver partitions its input into *fixed-size shards* (the
partition depends only on the input, never on the worker count), fans
the shards out through :class:`repro.parallel.executor.SweepExecutor`
(serial-inline when ``workers == 1``), and merges per-shard results in
shard order with :mod:`repro.shard.merge`.  The result is therefore
**bit-identical** to the serial path for any ``REPRO_WORKERS`` — the
property ``tests/test_shard_identity.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.engine import BatchOutcome, evaluate_scenarios
from repro.conformance.scenarios import Scenario
from repro.experiments.fault_tolerance import (
    DEFAULT_RATES,
    FaultToleranceReport,
)
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.parallel.executor import SweepExecutor
from repro.shard.merge import merge_batch_telemetry, merge_registry_snapshots
from repro.telemetry.profiling import BatchTelemetry
from repro.telemetry.registry import Snapshot

#: Scenarios per shard.  Fixed (never derived from the worker count):
#: the shard boundaries are part of the deterministic contract.
SCENARIO_SHARD_SIZE = 512


def shard_slices(n_items: int, shard_size: int) -> list[tuple[int, int]]:
    """``[start, end)`` bounds of each shard over ``n_items`` items."""
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [
        (lo, min(lo + shard_size, n_items))
        for lo in range(0, n_items, shard_size)
    ]


# ----------------------------------------------------- scenario batches
def _eval_chunk_task(item):
    scenarios, backend, node, constants = item
    telemetry = BatchTelemetry()
    outcomes = evaluate_scenarios(
        list(scenarios),
        backend=backend,
        node=node,
        constants=constants,
        telemetry=telemetry,
    )
    return outcomes, telemetry


def evaluate_scenarios_sharded(
    scenarios: list[Scenario],
    *,
    backend: str = "batch",
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    telemetry: BatchTelemetry | None = None,
    shard_size: int = SCENARIO_SHARD_SIZE,
    workers: int | None = None,
    executor: SweepExecutor | None = None,
) -> list[BatchOutcome]:
    """Sharded :func:`~repro.batch.engine.evaluate_scenarios`.

    Outcomes come back in input order and are bit-identical to the
    serial call (the batch solvers are lane-wise, so shard boundaries
    cannot change any lane's floats).  ``telemetry`` — when given — is
    updated with the per-shard counters folded in shard order; note a
    sharded run pays one kernel pass per (shard, class) instead of one
    per class, so ``kernel_calls`` differs from the unsharded count
    while every outcome byte matches.
    """
    if executor is None:
        executor = SweepExecutor(workers)
    tasks = [
        (tuple(scenarios[lo:hi]), backend, node, constants)
        for lo, hi in shard_slices(len(scenarios), shard_size)
    ]
    parts = executor.map(_eval_chunk_task, tasks)
    outcomes: list[BatchOutcome] = []
    for shard_outcomes, _ in parts:
        outcomes.extend(shard_outcomes)
    if telemetry is not None:
        telemetry.merge(merge_batch_telemetry([t for _, t in parts]))
    return outcomes


# ------------------------------------------------ Monte-Carlo fault MC
@dataclass(frozen=True)
class FaultMonteCarloReport:
    """Per-seed fault-tolerance replicas plus cross-replica statistics."""

    fault_seeds: tuple[int, ...]
    replicas: tuple[FaultToleranceReport, ...]  # in fault_seeds order

    def degradation_stats(self) -> list[dict[str, float | str]]:
        """Mean/min/max EDP degradation per (policy, rate) across seeds.

        Degradation is a replica's EDP relative to its own healthy
        (lowest-rate) run of the same policy.
        """
        cells: dict[tuple[str, float], list[float]] = {}
        for report in self.replicas:
            for run in report.runs:
                base = report.baseline(run.policy)
                ratio = run.edp / base.edp if base.edp else float("nan")
                cells.setdefault((run.policy, run.rate_per_1ks), []).append(ratio)
        rows: list[dict[str, float | str]] = []
        for (policy, rate), ratios in sorted(cells.items()):
            rows.append(
                {
                    "policy": policy,
                    "rate_per_1ks": rate,
                    "n_replicas": len(ratios),
                    "edp_degradation_mean": sum(ratios) / len(ratios),
                    "edp_degradation_min": min(ratios),
                    "edp_degradation_max": max(ratios),
                }
            )
        return rows


def _fault_replica_task(item):
    from repro.experiments.fault_tolerance import run_fault_tolerance

    kwargs = dict(item)
    return run_fault_tolerance(**kwargs)


def fault_mc_sharded(
    fault_seeds: tuple[int, ...] | list[int],
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    n_jobs: int = 120,
    mean_interarrival_s: float = 8.0,
    n_nodes: int = 4,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: int = 0,
    workers: int | None = None,
    executor: SweepExecutor | None = None,
) -> FaultMonteCarloReport:
    """Monte-Carlo replicas of the fault-tolerance sweep, one per seed.

    Every replica replays the *same* seeded workload under a different
    injection seed; the replicas tuple is ordered by ``fault_seeds``
    and each replica is byte-identical to calling
    :func:`~repro.experiments.fault_tolerance.run_fault_tolerance`
    with that seed directly, whatever the worker count.
    """
    seeds = tuple(int(s) for s in fault_seeds)
    if not seeds:
        raise ValueError("fault_seeds must be non-empty")
    if executor is None:
        executor = SweepExecutor(workers)
    tasks = [
        (
            ("rates", tuple(rates)),
            ("n_jobs", n_jobs),
            ("mean_interarrival_s", mean_interarrival_s),
            ("n_nodes", n_nodes),
            ("node", node),
            ("constants", constants),
            ("seed", seed),
            ("fault_seed", fault_seed),
        )
        for fault_seed in seeds
    ]
    replicas = executor.map(_fault_replica_task, tasks)
    return FaultMonteCarloReport(fault_seeds=seeds, replicas=tuple(replicas))


# -------------------------------------------------- multi-rack sweeps
@dataclass(frozen=True)
class RackSweepRow:
    """One steady-state run at one cluster size."""

    n_nodes: int
    n_jobs: int
    makespan: float
    total_energy: float
    edp: float
    #: Per-shard MetricsRegistry snapshot (engine namespace).
    metrics: Snapshot


@dataclass(frozen=True)
class RackSweepReport:
    """Rows in ``node_counts`` order plus the merged metrics snapshot."""

    rows: tuple[RackSweepRow, ...]
    merged_metrics: Snapshot

    def knee(self, threshold: float = 0.05) -> int:
        """Smallest cluster size past the scaling knee.

        The first size whose makespan improves on the previous row by
        less than ``threshold`` (relative) — the executor-count knee
        search of the nes-spark sweep.  Falls back to the largest size
        when scaling never flattens.
        """
        rows = sorted(self.rows, key=lambda r: r.n_nodes)
        for prev, cur in zip(rows, rows[1:]):
            if prev.makespan <= 0.0:
                continue
            gain = (prev.makespan - cur.makespan) / prev.makespan
            if gain < threshold:
                return cur.n_nodes
        return rows[-1].n_nodes


def _rack_cell_task(item):
    n_nodes, n_jobs, mean_interarrival_s, seed, recorder, node, constants = item
    from repro.mapreduce.engine import ClusterEngine
    from repro.telemetry.registry import cluster_registry
    from repro.workloads.streams import poisson_job_stream

    cluster = ClusterEngine(
        n_nodes=n_nodes, node=node, constants=constants, recorder=recorder
    )
    for spec in poisson_job_stream(
        n_jobs,
        mean_interarrival_s=mean_interarrival_s,
        seed=seed,
        tuned=True,
        job_ids_from=1,
    ):
        cluster.submit(spec)
    cluster.run()
    makespan = cluster.makespan
    # cache=False: the process-wide artifact-cache counters depend on
    # what else ran in the worker process — not shard-deterministic.
    snapshot = cluster_registry(cluster, cache=False).snapshot()
    return RackSweepRow(
        n_nodes=n_nodes,
        n_jobs=n_jobs,
        makespan=makespan,
        total_energy=cluster.total_energy(makespan),
        edp=cluster.edp(),
        metrics=snapshot,
    )


def rack_sweep_sharded(
    node_counts: tuple[int, ...] | list[int],
    *,
    n_jobs: int = 400,
    mean_interarrival_s: float = 2.0,
    seed: int = 0,
    recorder: str = "off",
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    workers: int | None = None,
    executor: SweepExecutor | None = None,
) -> RackSweepReport:
    """One steady-state run per cluster size, sharded across processes.

    Every cell replays the *same* seeded tuned job stream on a fresh
    cluster of a different size — the fig9 scalability grid.  Rows come
    back in ``node_counts`` order; per-cell engine metrics are merged
    into one snapshot in the same order.
    """
    counts = tuple(int(c) for c in node_counts)
    if not counts:
        raise ValueError("node_counts must be non-empty")
    if executor is None:
        executor = SweepExecutor(workers)
    tasks = [
        (c, n_jobs, mean_interarrival_s, seed, recorder, node, constants)
        for c in counts
    ]
    rows = executor.map(_rack_cell_task, tasks)
    return RackSweepReport(
        rows=tuple(rows),
        merged_metrics=merge_registry_snapshots([r.metrics for r in rows]),
    )
