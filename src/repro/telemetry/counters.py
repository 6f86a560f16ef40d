"""The counter families: each a dataclass of its counters, its
``record_*`` methods and its derived rates, all sharing one ``as_dict``.

This module imports nothing from ``repro``, so the engine can import
:class:`EngineTelemetry` at module level without an import cycle.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar


@functools.cache
def _number_fields(cls: type) -> tuple[str, ...]:
    # Counters and gauges take a plain numeric default; keyed detail
    # takes ``field(default_factory=dict)``.
    return tuple(f.name for f in fields(cls) if f.default is not MISSING)


class Counters:
    """Base of the counter families: the one ``as_dict``.

    ``as_dict`` exports every number field by name; each dict field
    named in :attr:`FLATTEN` as ``<prefix><key>`` entries in sorted key
    order; and each property named in :attr:`DERIVED` unless it is
    ``None``, so a rate appears once it is defined.  Dict fields not in
    :attr:`FLATTEN` are detail behind a derived total and stay out.
    """

    #: Dict field name -> prefix of its exported keyed counters.
    FLATTEN: ClassVar[dict[str, str]] = {}
    #: Properties exported by name (``None`` means not yet defined).
    DERIVED: ClassVar[tuple[str, ...]] = ()

    def as_dict(self) -> dict[str, float]:
        """Counter snapshot for :class:`repro.telemetry.registry.
        MetricsRegistry`."""
        values = vars(self)
        out = {name: values[name] for name in _number_fields(type(self))}
        for name, prefix in self.FLATTEN.items():
            for key, n in sorted(values[name].items()):
                out[f"{prefix}{key}"] = n
        for name in self.DERIVED:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


# ----------------------------------------------------- engine telemetry
@dataclass(eq=False)
class EngineTelemetry(Counters):
    """Hot-path accounting for the discrete-event engine.

    How many events the cluster processed (and how many were stale
    entries the generation counters discarded), how often the memoized
    recontext cache short-circuited a cost-kernel evaluation, and how
    many raw kernel evaluations were ultimately paid.  A steady-state
    run with a recurring application mix should report a high
    recontext hit rate — that cache is what makes per-decision model
    evaluation cheap enough for online self-tuning.
    """

    DERIVED = (
        "live_events", "segments_recorded", "segments_dropped",
        "segments_retained", "max_node_segments", "recontext_hit_rate",
    )

    events: int = 0
    stale_events: int = 0
    recontext_hits: int = 0
    recontext_misses: int = 0
    recontext_rejects: int = 0  # poisoned entries detected by key echo
    kernel_evals: int = 0
    # Fault-injection / recovery counters (repro.faults).
    faults_injected: int = 0
    task_failures: int = 0
    node_crashes: int = 0
    node_recoveries: int = 0
    stragglers: int = 0
    tasks_retried: int = 0
    speculative_launched: int = 0
    speculative_wasted: int = 0
    blocks_rereplicated: int = 0
    blocks_lost: int = 0
    nodes_blacklisted: int = 0
    # Recorder memory accounting: interval segments per node, so a
    # peak_rss movement in a bench payload is attributable to a node.
    segments_by_node: dict[int, int] = field(default_factory=dict)
    segments_dropped_by_node: dict[int, int] = field(default_factory=dict)

    # -- recording -----------------------------------------------------
    def record_event(self, *, stale: bool = False) -> None:
        self.events += 1
        if stale:
            self.stale_events += 1

    def record_fault(self, kind: str) -> None:
        """One injected fault event that actually took effect."""
        self.faults_injected += 1
        if kind == "task_fail":
            self.task_failures += 1
        elif kind == "node_crash":
            self.node_crashes += 1
        elif kind == "node_recover":
            self.node_recoveries += 1
        elif kind == "straggler":
            self.stragglers += 1
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    def record_retry(self) -> None:
        """A killed attempt re-executed from scratch."""
        self.tasks_retried += 1

    def record_speculative(self, *, wasted: bool = False) -> None:
        """A speculative duplicate launched, or a losing attempt killed."""
        if wasted:
            self.speculative_wasted += 1
        else:
            self.speculative_launched += 1

    def record_rereplication(self, rereplicated: int, lost: int) -> None:
        """Block recovery outcome after a datanode loss."""
        self.blocks_rereplicated += rereplicated
        self.blocks_lost += lost

    def record_blacklist(self) -> None:
        """A flapping node removed from scheduling consideration."""
        self.nodes_blacklisted += 1

    def record_recontext(self, *, hit: bool, jobs: int = 1) -> None:
        """``jobs`` per-job metric requests served (hit) or paid (miss)."""
        if hit:
            self.recontext_hits += jobs
        else:
            self.recontext_misses += jobs
            self.kernel_evals += jobs

    def record_reject(self) -> None:
        """A cache entry whose echoed key disagreed with its slot."""
        self.recontext_rejects += 1

    def record_segment(self, node_id: int) -> None:
        """One interval segment recorded on ``node_id``."""
        by_node = self.segments_by_node
        by_node[node_id] = by_node.get(node_id, 0) + 1

    def record_segments_dropped(self, node_id: int, n: int = 1) -> None:
        """Segments evicted by a bounded (streaming) recorder."""
        by_node = self.segments_dropped_by_node
        by_node[node_id] = by_node.get(node_id, 0) + n

    # -- derived -------------------------------------------------------
    @property
    def recontext_hit_rate(self) -> float | None:
        """Hits / lookups, or ``None`` before any recontext ran."""
        total = self.recontext_hits + self.recontext_misses
        if total == 0:
            return None
        return self.recontext_hits / total

    @property
    def live_events(self) -> int:
        return self.events - self.stale_events

    @property
    def segments_recorded(self) -> int:
        return sum(self.segments_by_node.values())

    @property
    def segments_dropped(self) -> int:
        return sum(self.segments_dropped_by_node.values())

    @property
    def segments_retained(self) -> int:
        """Segments still held in recorder memory across all nodes."""
        return self.segments_recorded - self.segments_dropped

    @property
    def max_node_segments(self) -> int | None:
        """Most segments recorded on one node, ``None`` before any."""
        return max(self.segments_by_node.values(), default=None)


# ---------------------------------------------------- service telemetry
@dataclass(eq=False)
class ServiceTelemetry(Counters):
    """Ingestion-path accounting for the streaming cluster service.

    Counts what happened at the service edge (requests, admission
    outcomes, malformed payloads) and behind it (dispatches into the
    engine, harvested completions), so a :class:`repro.telemetry.
    registry.MetricsRegistry` can expose it next to the engine's
    counters under separate namespaces.
    """

    FLATTEN = {"rejections_by_reason": "rejected_"}
    DERIVED = ("inflight", "accept_rate")

    requests: int = 0
    accepted: int = 0
    rejected: int = 0
    malformed: int = 0
    rejections_by_reason: dict[str, int] = field(default_factory=dict)
    dispatched: int = 0
    completed: int = 0
    advances: int = 0  # engine advance calls (virtual ticks / pumps)

    # -- recording -----------------------------------------------------
    def record_request(self) -> None:
        self.requests += 1

    def record_accept(self) -> None:
        self.accepted += 1

    def record_reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1
        )

    def record_malformed(self) -> None:
        self.malformed += 1

    def record_dispatch(self, n: int = 1) -> None:
        self.dispatched += n

    def record_complete(self, n: int = 1) -> None:
        self.completed += n

    def record_advance(self) -> None:
        self.advances += 1

    # -- derived -------------------------------------------------------
    @property
    def accept_rate(self) -> float | None:
        """accepted / (accepted + rejected), None before any decision."""
        decided = self.accepted + self.rejected
        if decided == 0:
            return None
        return self.accepted / decided

    @property
    def inflight(self) -> int:
        """Accepted jobs not yet harvested as completions."""
        return self.accepted - self.completed


# ----------------------------------------------------- online telemetry
@dataclass(eq=False)
class OnlineTelemetry(Counters):
    """Counters for the online self-tuning layer (``repro.online``).

    One object is shared between an :class:`repro.online.stp.OnlineSTP`
    (updates, refits, drift alarms, learning-period re-sweeps) and the
    :class:`repro.online.shadow.ShadowSTP` wrapped around it (scored
    decisions, cumulative EDP regret per contender, promotion), so the
    ``online`` registry namespace exposes the whole layer at once.
    """

    updates: int = 0  # telemetry rows folded into the model
    refits: int = 0  # full window refits (drift / cluster change)
    drift_alarms: int = 0
    relearn_sweeps: int = 0  # learning-period pair re-sweeps
    tuned_hits: int = 0  # predictions served from swept-pair entries
    skipped_rows: int = 0  # non-positive / non-finite observed EDP
    noisy_rows: int = 0  # unsynchronized pairings: detector-only
    window_rows: int = 0
    decisions: int = 0  # pairing decisions scored in shadow mode
    promotions: int = 0
    promoted_at: int = -1  # decision index; -1 while unpromoted
    champion_regret: float = 0.0  # cumulative EDP regret (J·s)
    challenger_regret: float = 0.0


# ------------------------------------------------------ sweep telemetry
@dataclass(eq=False)
class SweepTelemetry(Counters):
    """Wall-time and cache accounting for fanned-out sweeps.

    The parallel sweep executor records one sample per task — which
    worker ran it and how long it took — plus the artifact-cache
    hit/miss delta observed around each batch, so a sweep can report
    its wall time and cache hit rate without any global state of its
    own.  Per-worker detail collapses to totals on export.
    """

    DERIVED = (
        "n_tasks", "n_workers", "task_wall_s", "cache_hit_rate",
        "parallel_speedup",
    )

    worker_wall_s: dict[str, float] = field(default_factory=dict)
    worker_tasks: dict[str, int] = field(default_factory=dict)
    n_batches: int = 0
    batch_wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    # -- recording -----------------------------------------------------
    def record_task(self, worker: str, wall_s: float) -> None:
        """One executed task: ``worker`` id (pid) and its wall time."""
        self.worker_wall_s[worker] = self.worker_wall_s.get(worker, 0.0) + wall_s
        self.worker_tasks[worker] = self.worker_tasks.get(worker, 0) + 1

    def record_batch(self, wall_s: float) -> None:
        """End-to-end wall time of one fan-out batch."""
        self.n_batches += 1
        self.batch_wall_s += wall_s

    def record_cache(self, hits: int, misses: int) -> None:
        """Artifact-cache activity observed while a batch ran."""
        self.cache_hits += hits
        self.cache_misses += misses

    # -- derived -------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return sum(self.worker_tasks.values())

    @property
    def n_workers(self) -> int:
        return len(self.worker_wall_s)

    @property
    def task_wall_s(self) -> float:
        """Total task compute time across all workers."""
        return sum(self.worker_wall_s.values())

    @property
    def cache_hit_rate(self) -> float | None:
        """Hits / (hits + misses), or ``None`` with no cache activity."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return None
        return self.cache_hits / total

    @property
    def parallel_speedup(self) -> float | None:
        """Aggregate task time over batch wall time (≈ effective workers)."""
        if self.batch_wall_s <= 0.0:
            return None
        return self.task_wall_s / self.batch_wall_s


# ------------------------------------------------------ batch telemetry
@dataclass(eq=False)
class BatchTelemetry(Counters):
    """Accounting for :func:`repro.batch.engine.evaluate_scenarios`.

    Tracks how many scenarios each backend actually served, how many of
    those were honest fallbacks to the event engine, and the shape of
    the vectorised work (kernel passes and total SoA lanes).  A healthy
    batch run over solvable scenario classes should report a batched
    rate near 1.0; a low rate means the workload's shapes are outside
    the closed forms and the batch layer is mostly delegating.
    """

    FLATTEN = {"by_case": "case_"}
    DERIVED = ("batched_rate", "mean_lanes_per_call")

    scenarios: int = 0
    batched: int = 0
    fallbacks: int = 0
    kernel_calls: int = 0
    kernel_lanes: int = 0
    by_case: dict[str, int] = field(default_factory=dict)

    # -- recording -----------------------------------------------------
    def record_scenario(self, case: str, backend: str, fallback: bool) -> None:
        """One scenario's final outcome: class, serving backend, fallback."""
        self.scenarios += 1
        self.by_case[case] = self.by_case.get(case, 0) + 1
        if fallback:
            self.fallbacks += 1
        elif backend != "event":
            self.batched += 1

    def record_kernel(self, lanes: int) -> None:
        """One vectorised solver pass over ``lanes`` scenario lanes."""
        self.kernel_calls += 1
        self.kernel_lanes += lanes

    # -- derived -------------------------------------------------------
    @property
    def batched_rate(self) -> float | None:
        """Closed-form share of scenarios, or ``None`` before any ran."""
        if self.scenarios == 0:
            return None
        return self.batched / self.scenarios

    @property
    def mean_lanes_per_call(self) -> float | None:
        """Average SoA width per kernel pass (the amortisation factor)."""
        if self.kernel_calls == 0:
            return None
        return self.kernel_lanes / self.kernel_calls
