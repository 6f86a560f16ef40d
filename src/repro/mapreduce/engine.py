"""Discrete-event timing engine for MapReduce jobs on microservers.

Execution model
---------------
Each running job is a *fluid activity*: the shared cost kernel
(:func:`repro.model.costmodel.standalone_metrics_scalar`) gives its
standalone duration and resource-demand profile under the current
co-location context (LLC module sharing, footprint overcommit, disk
stream count).  Co-resident jobs all progress at rate ``1/stretch``
where ``stretch`` is the fluid oversubscription factor of
:func:`repro.model.costmodel.fluid_stretch`.

Whenever the running set of a node changes (submit/finish), every
affected job's context is re-evaluated and its remaining work is
carried over as a *fraction* of the new standalone duration — work is
conserved exactly across context switches.  Between events the node is
in a fixed configuration, and its interval recorder keeps one
``(start, end, watts)`` segment per such stretch: the node's
time-resolved power trace, which
:meth:`repro.telemetry.wattsup.WattsupMeter.trace` samples at 1 Hz.

The closed-form :func:`~repro.model.costmodel.pair_metrics` is this
engine's two-job special case, up to one documented approximation (the
closed form keeps the co-location context during the tail segment; the
engine re-evaluates it) — the consistency test-suite bounds the gap.

Hot path
--------
Three structures keep the per-event cost flat (see
``docs/ARCHITECTURE.md`` §"The indexed event core"):

* the **scalar cost kernel** — per-job metrics are plain floats,
  bit-identical to the broadcastable NumPy path but with zero array
  allocations;
* the **recontext cache** (:class:`RecontextCache`) — identical
  ``(profile, config, co-runner context)`` running sets share one
  memoized metric evaluation, with hit/miss counters surfaced through
  :class:`repro.telemetry.counters.EngineTelemetry`;
* the **indexed event core** — nodes advance lazily (only when their
  own membership changes), and the cluster keeps at most one live
  completion entry per node in its event heap, invalidated by a
  per-node generation counter instead of speculative re-arming.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.events import EventQueue
from repro.mapreduce.indexes import FreeCoreIndex, PendingQueue
from repro.mapreduce.job import JobResult, JobSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import (
    ScalarJobMetrics,
    colocation_context_scalar,
    standalone_metrics_scalar,
)
from repro.telemetry.counters import EngineTelemetry
from repro.telemetry.tracing import NULL_TRACER


# ------------------------------------------------------------- recorders
#: Default retained-segment bound of the streaming recorder.
STREAMING_RECORDER_BOUND = 4096


class _SegmentWindow:
    """Indexed (busy energy, busy seconds) window queries over segments.

    Segments arrive in time order and never overlap (a node records
    ``[clock, t]`` only for ``t > clock``, and its clock never moves
    back), so out-of-order input is refused, and a window query needs
    only the overlapping run ``[i, j)``, found by bisection.  Two
    paths, both bit-identical to a linear scan over every segment:

    * **head-anchored prefix sums** — a window covering the trace head
      reads the running prefix sums directly (they were accumulated in
      the same left-to-right order the scan adds in, so the floats
      match bit for bit) plus one partial tail segment: O(log n);
    * **bounded scan** — an interior window scans only ``[i, j)``; the
      skipped segments contributed nothing to the scan, so the
      additions performed are exactly the same: O(log n + overlap).

    Interior windows cannot use prefix-sum *differences*: subtracting
    two rounded partial sums re-associates the float additions and
    drifts from the scan by an ulp — enough to break the byte-identity
    the golden suite pins.

    ``bound=None`` keeps every segment.  A bound keeps only the newest
    ``bound`` segments; older ones collapse into running (energy,
    seconds) totals — the global prefix sums at the drop point, same
    additions in the same order — so a head-anchored window covering
    the dropped region, or a window over retained segments only, gets
    the unbounded answer bit for bit.  A window whose edge falls
    *inside* the dropped region cannot be reconstructed and raises
    ``RuntimeError``: the caller asked for history the bound
    discarded, and a silently-wrong answer would be worse.
    """

    def __init__(self, bound: int | None = None) -> None:
        if bound is not None and bound < 1:
            raise ValueError("streaming recorder bound must be >= 1")
        self.bound = bound
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.watts: list[float] = []
        self._cum_energy: list[float] = []  # global prefix incl. drops
        self._cum_time: list[float] = []
        self._lo = 0  # first retained physical slot
        self.dropped = 0
        self._dropped_energy = 0.0
        self._dropped_time = 0.0
        self._drop_end = float("-inf")  # end of the last dropped segment
        self._first_start: float | None = None

    @property
    def retained(self) -> int:
        return len(self.starts) - self._lo

    def add(self, start: float, end: float, watts: float) -> bool:
        """Append one segment; True when the bound dropped the oldest."""
        ends = self.ends
        if ends:
            if start < ends[-1]:
                raise RuntimeError(
                    "interval recorder requires time-ordered segments"
                )
            prev_e = self._cum_energy[-1]
            prev_t = self._cum_time[-1]
        else:
            self._first_start = start
            prev_e = prev_t = 0.0
        self.starts.append(start)
        ends.append(end)
        self.watts.append(watts)
        self._cum_energy.append(prev_e + watts * (end - start))
        self._cum_time.append(prev_t + (end - start))
        bound = self.bound
        if bound is None or len(ends) - self._lo <= bound:
            return False
        lo = self._lo
        # The global prefix sums *are* the dropped totals: same
        # additions, same order as an unbounded window performed.
        self._dropped_energy = self._cum_energy[lo]
        self._dropped_time = self._cum_time[lo]
        self._drop_end = ends[lo]
        self.dropped += 1
        self._lo = lo + 1
        if self._lo > 2 * bound:
            del self.starts[: self._lo]
            del ends[: self._lo]
            del self.watts[: self._lo]
            del self._cum_energy[: self._lo]
            del self._cum_time[: self._lo]
            self._lo = 0
        return True

    def _head(self, j: int, t0: float, t1: float) -> tuple[float, float]:
        """Head-anchored read: the dropped segments and retained
        ``[lo, j-1)`` lie fully inside the window, so their global
        prefix sum is read directly; only segment ``j-1`` can be cut."""
        if j - 1 > self._lo:
            busy = self._cum_energy[j - 2]
            covered = self._cum_time[j - 2]
        else:
            busy = self._dropped_energy
            covered = self._dropped_time
        s0 = max(self.starts[j - 1], t0)
        s1 = min(self.ends[j - 1], t1)
        if s1 > s0:
            busy += self.watts[j - 1] * (s1 - s0)
            covered += s1 - s0
        return busy, covered

    def busy_between(self, t0: float, t1: float) -> tuple[float, float]:
        """(busy energy, busy seconds) overlapping ``[t0, t1]``."""
        if self._first_start is None:
            return 0.0, 0.0
        lo, n = self._lo, len(self.starts)
        if self.dropped:
            if t1 <= self._first_start:
                return 0.0, 0.0
            if t0 <= self._first_start and t1 >= self._drop_end:
                # Every dropped segment lies inside the window.
                j = bisect_left(self.starts, t1, lo, n)
                if j <= lo:
                    return self._dropped_energy, self._dropped_time
                return self._head(j, t0, t1)
            if t0 < self._drop_end:
                raise RuntimeError(
                    "window predates the streaming recorder's retention "
                    f"bound ({self.bound} segments); use recorder='full'"
                )
        i = bisect_right(self.ends, t0, lo, n)  # first retained end > t0
        j = bisect_left(self.starts, t1, lo, n)  # first retained start >= t1
        if i >= j:
            return 0.0, 0.0
        if not self.dropped and i == 0 and t0 <= self.starts[0]:
            return self._head(j, t0, t1)
        busy = 0.0
        covered = 0.0
        for k in range(i, j):
            s0, s1 = max(self.starts[k], t0), min(self.ends[k], t1)
            if s1 > s0:
                busy += self.watts[k] * (s1 - s0)
                covered += s1 - s0
        return busy, covered


class FullIntervalRecorder(_SegmentWindow):
    """Default recorder: the window, keeping every segment — the node's
    power trace :class:`~repro.telemetry.wattsup.WattsupMeter` samples."""

    mode = "full"

    def record(self, engine, start, end, watts):
        self.add(start, end, watts)
        engine.telemetry.record_segment(engine.node_id)


class ColumnarIntervalRecorder(_SegmentWindow):
    """The window alone: the same storage and answers as
    :class:`FullIntervalRecorder`, kept as a separate mode name."""

    mode = "columnar"

    def record(self, engine, start, end, watts):
        self.add(start, end, watts)
        engine.telemetry.record_segment(engine.node_id)


class NullIntervalRecorder:
    """No per-segment storage at all (prefix-sum accounting only)."""

    mode = "off"

    def record(self, engine, start, end, watts):
        pass

    def busy_between(self, t0: float, t1: float) -> tuple[float, float]:
        raise RuntimeError(
            "windowed energy queries need an interval recorder; this engine "
            "runs with recorder='off' (only full-horizon energy is available)"
        )


class StreamingIntervalRecorder(_SegmentWindow):
    """Bounded recorder: the window with a bound.

    Long steady-state runs at 256+ nodes accumulate millions of
    segments under the full/columnar recorders — unbounded memory for
    a trace those runs never read.  This recorder retains only the newest
    ``bound`` segments per node and answers every window the bound
    kept bit-identically to the full recorder (see
    :class:`_SegmentWindow`).  Full-horizon ``energy_between`` never
    reaches a recorder (node prefix sums answer it), so bounded
    retention is invisible to the standard energy accounting.
    """

    mode = "streaming"

    def __init__(self, bound: int = STREAMING_RECORDER_BOUND) -> None:
        super().__init__(bound)

    def record(self, engine, start, end, watts):
        dropped = self.add(start, end, watts)
        engine.telemetry.record_segment(engine.node_id)
        if dropped:
            engine.telemetry.record_segments_dropped(engine.node_id)


_RECORDERS: dict[str, Callable[[], object]] = {
    "full": FullIntervalRecorder,
    "columnar": ColumnarIntervalRecorder,
    "off": NullIntervalRecorder,
    "streaming": StreamingIntervalRecorder,
}


def make_recorder(mode: str):
    """Instantiate an interval recorder by mode name.

    ``"streaming"`` accepts an optional retained-segment bound as
    ``"streaming:<N>"`` (default :data:`STREAMING_RECORDER_BOUND`).
    """
    base, _, arg = mode.partition(":")
    if base == "streaming" and arg:
        try:
            bound = int(arg)
        except ValueError:
            raise ValueError(
                f"bad streaming recorder bound {arg!r} in mode {mode!r}"
            ) from None
        return StreamingIntervalRecorder(bound)
    try:
        return _RECORDERS[mode]()
    except KeyError:
        raise ValueError(
            f"unknown recorder mode {mode!r}; valid: {', '.join(_RECORDERS)}"
        ) from None


# --------------------------------------------------------- metrics cache
#: One running job's identity inside a recontext key.
_JobKey = tuple

#: A cache key: ("set", *identities) or ("job", identity, context).
RecontextKey = tuple


class RecontextCache:
    """Bounded LRU over memoized recontext evaluations.

    A steady-state run re-creates identical co-location situations
    thousands of times, and the cost-kernel output is a pure function
    of its inputs, so one evaluation serves them all.  Two key shapes
    share the store:

    * ``("set", identity, ...)`` — a whole running set (ordered job
      identities) mapped to its tuple of metrics.  One lookup
      short-circuits the entire recontext.
    * ``("job", identity, (mpki_scale, disk_scale, extra_streams))`` —
      one job under one co-runner context, mapped to its metrics.  The
      fallback when the exact set is new: most of a *new* set's
      members have still been seen under the same context before
      (this is the ``(profile, config, co-runner context)`` key).

    Entries store an *echo* of their key next to the value: a slot
    whose echo disagrees with the lookup key (a poisoned or corrupted
    entry) is discarded and recomputed rather than trusted, and the
    rejection is counted on the telemetry object.  Hit/miss accounting
    is the caller's job (the engine counts per-job metric requests).
    """

    def __init__(self, maxsize: int = 8192, *, telemetry=None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.telemetry = telemetry if telemetry is not None else EngineTelemetry()
        self._data: OrderedDict[RecontextKey, tuple[RecontextKey, object]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def get(self, key: RecontextKey):
        """Cached value for ``key``, or None."""
        slot = self._data.get(key)
        if slot is None:
            return None
        echo, value = slot
        if echo != key:
            # Poisoned entry: its stored key echo disagrees with the
            # slot it sits in.  Drop it and report a miss.
            del self._data[key]
            self.telemetry.record_reject()
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key: RecontextKey, value) -> None:
        self._data[key] = (key, value)
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)


def _running_key(r: "_Running") -> _JobKey:
    spec = r.spec
    cfg = spec.config
    return (
        spec.instance.profile,
        spec.instance.data_bytes,
        cfg.frequency,
        cfg.block_size,
        cfg.n_mappers,
    )


@dataclass
class _Running:
    spec: JobSpec
    start_time: float
    metrics: ScalarJobMetrics | None  # under the current context
    remaining: float  # remaining standalone seconds under current context
    energy: float = 0.0
    #: Straggler multiplier on this job's progress rate (1.0 = healthy).
    #: A straggling job burns remaining work at ``1/(stretch*slowdown)``.
    slowdown: float = 1.0

    @property
    def fraction_left(self) -> float:
        assert self.metrics is not None
        return self.remaining / self.metrics.duration


class NodeEngine:
    """Event-driven simulation of one node.

    ``generation`` increments on every membership change (submit or
    completion); the cluster tags its completion-heap entries with it
    so stale entries are skipped in O(1) instead of re-armed.
    """

    def __init__(
        self,
        node: NodeSpec = ATOM_C2758,
        *,
        node_id: int = 0,
        constants: SimConstants = DEFAULT_CONSTANTS,
        cache: RecontextCache | None = None,
        recorder: str = "full",
        tracer=NULL_TRACER,
        class_tag: int = 0,
    ) -> None:
        self.node = node
        self.node_id = node_id
        #: Integer node-class tag mixed into recontext cache keys when a
        #: shared cache serves engines with *different* node specs (the
        #: kernel output depends on the spec, so a xeon engine must not
        #: reuse an atom engine's entry).  Tag 0 — every homogeneous
        #: cluster — keeps today's untagged key shape exactly.
        self.class_tag = class_tag
        self.constants = constants
        self.tracer = tracer
        if tracer.enabled:
            tracer.name_process(1 + node_id, f"node {node_id}")
        self.running: list[_Running] = []
        self.finished: list[JobResult] = []
        self.cache = cache if cache is not None else RecontextCache()
        self.telemetry = self.cache.telemetry
        self._recorder = make_recorder(recorder)
        self.generation = 0
        self.alive = True
        #: Called with this engine after every free-core change; the
        #: cluster uses it to keep its placement index current.
        self.capacity_listener: Callable[["NodeEngine"], None] | None = None
        self._used_cores = 0
        self._seg: tuple[float, float] | None = None
        self._clock = 0.0
        self._busy_energy = 0.0  # energy while >=1 job runs (above nothing)
        self._busy_time = 0.0  # seconds with >=1 job running
        self._first_busy_start = float("inf")
        self._last_busy_end = float("-inf")
        #: Closed [start, end] outages; end is +inf while still down.
        self._down_intervals: list[list[float]] = []

    # ----------------------------------------------------------- queries
    @property
    def now(self) -> float:
        return self._clock

    @property
    def recorder(self):
        return self._recorder

    @property
    def used_cores(self) -> int:
        # Maintained incrementally by _recontext: recomputing the sum
        # here per can_fit call was 93% of a 256-node run's wall time.
        return self._used_cores

    @property
    def free_cores(self) -> int:
        if not self.alive:
            return 0
        return self.node.n_cores - self.used_cores

    @property
    def busy_seconds(self) -> float:
        """Total seconds this node spent with ≥1 job running."""
        return self._busy_time

    def can_fit(self, spec: JobSpec) -> bool:
        return spec.config.n_mappers <= self.free_cores

    def oracle_snapshot(self) -> dict:
        """Internal accounting state, exposed for conformance checks.

        The analytic oracles of :mod:`repro.conformance` assert against
        these sums directly (not just against derived metrics), so an
        accounting bug cannot hide behind a compensating error in a
        downstream formula.  Read-only: the dict is a copy.
        """
        return {
            "node_id": self.node_id,
            "clock": self._clock,
            "alive": self.alive,
            "generation": self.generation,
            "running_labels": [r.spec.label for r in self.running],
            "busy_seconds": self._busy_time,
            "busy_energy": self._busy_energy,
            "first_busy_start": self._first_busy_start,
            "last_busy_end": self._last_busy_end,
            "down_intervals": [tuple(iv) for iv in self._down_intervals],
            "completed": len(self.finished),
        }

    def _segment_state(self) -> tuple[float, float]:
        """(stretch, watts), cached per generation."""
        seg = self._seg
        if seg is None:
            pm = self.node.power
            if not self.running:
                seg = (1.0, pm.idle_power)
            else:
                bw = self.node.membw.achievable_bw
                sum_disk = 0.0
                sum_net = 0.0
                sum_mem = 0.0
                sum_core = 0.0
                for r in self.running:
                    m = r.metrics
                    sum_disk += m.u_disk
                    sum_net += m.u_net
                    sum_mem += m.mem_demand
                    sum_core += m.core_power
                s = max(1.0, sum_disk, sum_net, sum_mem / bw)
                core = sum_core / s
                u_disk = min(sum_disk / s, 1.0)
                u_mem = min(sum_mem / s / bw, 1.0)
                watts = (
                    pm.idle_power
                    + core
                    + pm.mem_max_power * u_mem
                    + pm.disk_max_power * u_disk
                )
                seg = (s, watts)
            self._seg = seg
        return seg

    @property
    def stretch(self) -> float:
        return self._segment_state()[0]

    def next_completion(self) -> Optional[tuple[float, JobSpec]]:
        """(absolute time, spec) of the earliest-finishing running job."""
        if not self.running:
            return None
        s = self._segment_state()[0]
        best = min(self.running, key=lambda r: r.remaining * r.slowdown)
        return self._clock + best.remaining * best.slowdown * s, best.spec

    # ---------------------------------------------------------- dynamics
    def _recontext(self) -> None:
        """Re-evaluate every running job under the current running set.

        Evaluation is memoized: the per-job metrics are a pure function
        of the ordered ``(profile, data, config)`` identities of
        the running set, so identical sets share one kernel evaluation.
        """
        self.generation += 1
        self._seg = None
        running = self.running
        self._used_cores = sum(r.spec.config.n_mappers for r in running)
        listener = self.capacity_listener
        if listener is not None:
            listener(self)
        if not running:
            return
        cache = self.cache
        telemetry = self.telemetry
        tag = self.class_tag
        ids = tuple(_running_key(r) for r in running)
        set_key = ("set",) + ids if tag == 0 else ("set", tag) + ids
        metrics = cache.get(set_key)
        if metrics is not None:
            telemetry.record_recontext(hit=True, jobs=len(running))
        else:
            ctx = colocation_context_scalar(
                [r.spec.instance.profile for r in running],
                [float(r.spec.config.n_mappers) for r in running],
                node=self.node,
                constants=self.constants,
            )
            out = []
            for r, identity, c in zip(running, ids, ctx):
                job_key = (
                    ("job", identity, c) if tag == 0 else ("job", tag, identity, c)
                )
                m = cache.get(job_key)
                if m is not None:
                    telemetry.record_recontext(hit=True)
                else:
                    telemetry.record_recontext(hit=False)
                    mpki, disk, extra = c
                    m = standalone_metrics_scalar(
                        r.spec.instance.profile,
                        r.spec.instance.data_bytes,
                        r.spec.config.frequency,
                        r.spec.config.block_size,
                        r.spec.config.n_mappers,
                        node=self.node,
                        constants=self.constants,
                        mpki_scale=mpki,
                        disk_traffic_scale=disk,
                        extra_streams=extra,
                    )
                    cache.put(job_key, m)
                out.append(m)
            metrics = tuple(out)
            cache.put(set_key, metrics)
        for r, m in zip(running, metrics):
            frac_left = 1.0 if r.metrics is None else r.fraction_left
            r.metrics = m
            r.remaining = frac_left * m.duration

    def advance_to(self, t: float) -> None:
        """Progress all running jobs to absolute time ``t``.

        ``t`` must not cross a completion (the caller — :meth:`step` or
        :class:`ClusterEngine` — always advances event to event).
        Nodes advance *lazily*: the cluster only calls this when this
        node's own membership is about to change, so one segment may
        span many cluster-wide events.
        """
        if t < self._clock - 1e-9:
            raise ValueError(f"time moves backwards: {t} < {self._clock}")
        dt = t - self._clock
        if dt <= 0:
            self._clock = max(self._clock, t)
            return
        if self.running:
            s, watts = self._segment_state()
            self._recorder.record(self, self._clock, t, watts)
            progress = dt / s
            share = watts * dt / len(self.running)
            # The completion time was rounded to the clock's resolution,
            # which exceeds 1e-6 s from about 2**35 s of virtual time.
            tol = max(1e-6 * max(1.0, progress), math.ulp(t))
            for r in self.running:
                r.remaining -= progress / r.slowdown
                if r.remaining < -tol:
                    raise RuntimeError(
                        f"job {r.spec.label} overshot completion by {-r.remaining}s"
                    )
                r.remaining = max(r.remaining, 0.0)
                r.energy += share
            self._busy_energy += watts * dt
            self._busy_time += dt
            if self._clock < self._first_busy_start:
                self._first_busy_start = self._clock
            self._last_busy_end = t
        self._clock = t

    def submit(self, spec: JobSpec, *, time: float | None = None) -> None:
        """Start a job now (or at ``time`` ≥ now); it must fit."""
        t = self._clock if time is None else time
        self.advance_to(t)
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is down")
        if not self.can_fit(spec):
            raise RuntimeError(
                f"node {self.node_id} has {self.free_cores} free cores; "
                f"{spec.label} needs {spec.config.n_mappers}"
            )
        spec.config.validate_for(self.node)
        self.running.append(
            _Running(spec=spec, start_time=t, metrics=None, remaining=0.0)
        )
        self._recontext()

    def _complete(self, r: _Running) -> JobResult:
        result = JobResult(
            spec=r.spec,
            node_id=self.node_id,
            start_time=r.start_time,
            finish_time=self._clock,
            energy_joules=r.energy,
        )
        self.running.remove(r)
        self.finished.append(result)
        self._recontext()
        if self.tracer.enabled:
            self._trace_job(r, result)
        return result

    def _trace_job(self, r: _Running, result: JobResult) -> None:
        """Emit the job-lifetime span plus derived phase sub-spans.

        The fluid model has no explicit map/shuffle phases, so the
        breakdown is *derived*: the job's wall span is split into its
        ``ceil(waves)`` map waves with a shuffle/reduce tail sized by
        the network share ``t_net / duration`` of the final context.
        Purely observational — reads completed state only.
        """
        spec = result.spec
        pid = 1 + self.node_id
        tid = spec.job_id
        start, end = result.start_time, result.finish_time
        tracer = self.tracer
        tracer.name_thread(pid, tid, spec.label)
        tracer.span(
            spec.label,
            "job",
            start,
            end,
            pid=pid,
            tid=tid,
            args={
                "job_id": spec.job_id,
                "app": spec.instance.label,
                "config": spec.config.label,
                "node": self.node_id,
                "energy_joules": result.energy_joules,
            },
        )
        m = r.metrics
        wall = end - start
        if m is None or wall <= 0.0 or m.duration <= 0.0:
            return
        tail = wall * min(max(m.t_net / m.duration, 0.0), 0.9)
        n_waves = min(max(int(math.ceil(m.waves)), 1), 64)
        per = (wall - tail) / n_waves
        for w in range(n_waves):
            tracer.span(
                f"map wave {w + 1}/{n_waves}",
                "phase",
                start + w * per,
                start + (w + 1) * per,
                pid=pid,
                tid=tid,
            )
        if tail > 0.0:
            tracer.span(
                "shuffle/reduce", "phase", end - tail, end, pid=pid, tid=tid
            )

    # ------------------------------------------------------- fault path
    # These primitives are no-ops on a healthy run; repro.faults drives
    # them.  Every one advances membership through _recontext (or bumps
    # the generation directly), so any completion entry armed before the
    # fault is recognised as stale by the cluster's event core.
    def evict(self, job_id: int) -> tuple[JobSpec, float]:
        """Kill a running attempt without completing it.

        Returns ``(spec, elapsed_seconds)`` of the killed attempt; its
        partial work is lost, as with a Hadoop task re-execution.  The
        caller must have advanced the node to the eviction time.
        """
        r = next((x for x in self.running if x.spec.job_id == job_id), None)
        if r is None:
            raise KeyError(f"job {job_id} is not running on node {self.node_id}")
        elapsed = self._clock - r.start_time
        self.running.remove(r)
        self._recontext()
        if self.tracer.enabled:
            self.tracer.instant(
                "evict",
                "fault",
                self._clock,
                pid=1 + self.node_id,
                tid=job_id,
                args={"job": r.spec.label, "elapsed_s": elapsed},
            )
        return r.spec, elapsed

    def apply_slowdown(self, job_id: int, factor: float) -> None:
        """Turn a running attempt into a straggler (rate ÷ ``factor``).

        Factors compose multiplicatively.  Power and co-location context
        are unchanged — a straggler occupies its cores at full demand
        while making slow progress — so only the generation is bumped
        (the armed completion entry is now stale), not the segment
        state.  The caller must have advanced the node first.
        """
        if factor <= 0.0:
            raise ValueError("slowdown factor must be > 0")
        r = next((x for x in self.running if x.spec.job_id == job_id), None)
        if r is None:
            raise KeyError(f"job {job_id} is not running on node {self.node_id}")
        r.slowdown *= factor
        self.generation += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "straggler",
                "fault",
                self._clock,
                pid=1 + self.node_id,
                tid=job_id,
                args={"job": r.spec.label, "factor": factor},
            )

    def crash(self) -> list[tuple[JobSpec, float]]:
        """Fail the node at its current clock.

        Every running attempt is killed (returned as ``(spec, elapsed)``
        pairs), the node refuses work and draws zero power until
        :meth:`restore`.  The caller must have advanced the node first.
        """
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is already down")
        lost = [(r.spec, self._clock - r.start_time) for r in self.running]
        self.running.clear()
        self._recontext()
        self.alive = False
        if self.capacity_listener is not None:
            # _recontext fired while still alive; re-fire now that the
            # node reports zero free cores.
            self.capacity_listener(self)
        self._down_intervals.append([self._clock, float("inf")])
        if self.tracer.enabled:
            self.tracer.instant(
                "node crash",
                "fault",
                self._clock,
                pid=1 + self.node_id,
                args={"node": self.node_id, "jobs_lost": len(lost)},
            )
        return lost

    def restore(self) -> None:
        """Bring a crashed node back at its current clock."""
        if self.alive:
            raise RuntimeError(f"node {self.node_id} is not down")
        self.alive = True
        if self.capacity_listener is not None:
            self.capacity_listener(self)
        self._down_intervals[-1][1] = self._clock
        if self.tracer.enabled:
            self.tracer.span(
                "node down",
                "fault",
                self._down_intervals[-1][0],
                self._clock,
                pid=1 + self.node_id,
                args={"node": self.node_id},
            )

    def down_seconds(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` this node spent crashed."""
        total = 0.0
        for start, end in self._down_intervals:
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                total += hi - lo
        return total

    def step(self) -> Optional[JobResult]:
        """Advance to the next completion and return it (None if idle)."""
        nxt = self.next_completion()
        if nxt is None:
            return None
        t, spec = nxt
        self.advance_to(t)
        r = next(
            (x for x in self.running if x.spec.job_id == spec.job_id), None
        )
        if r is None:  # pragma: no cover - defensive
            return None
        return self._complete(r)

    def run_to_completion(self) -> list[JobResult]:
        """Drain all running jobs; returns completions in time order."""
        out = []
        while self.running:
            res = self.step()
            assert res is not None
            out.append(res)
        return out

    def energy_between(self, t0: float, t1: float) -> float:
        """Whole-node energy over [t0, t1], idle power when no job ran.

        Full-horizon queries (the window covers every busy segment) are
        answered in O(1) from running prefix sums; narrower windows
        scan the recorded intervals (and require a recorder).
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t0 <= self._first_busy_start and t1 >= self._last_busy_end:
            busy, covered = self._busy_energy, self._busy_time
        else:
            busy, covered = self._recorder.busy_between(t0, t1)
        idle_time = (t1 - t0) - covered
        if self._down_intervals:
            # A crashed node draws nothing; outages never overlap busy
            # segments (a crash evicts every running attempt first).
            idle_time -= self.down_seconds(t0, t1)
        return busy + self.node.power.idle_power * idle_time


SchedulerFn = Callable[["ClusterEngine", float], None]


class ClusterEngine:
    """N nodes plus an arrival queue and a pluggable scheduler.

    The scheduler callback fires after every arrival and completion;
    it inspects :attr:`pending` and places jobs with :meth:`place`.
    The default scheduler is FIFO first-fit, which is what the
    untuned mapping-policy baselines use; ECoST installs its own
    (classification + pairing + self-tuning) scheduler.

    Event core: the shared :class:`~repro.mapreduce.events.EventQueue`
    holds at most one *live* completion entry per node — each entry is
    tagged ``(node_id, generation)`` and a node's generation advances
    on every membership change, so superseded entries are recognised
    and dropped in O(1) when they surface (classic lazy heap
    invalidation, O(log n) per completion overall).  Nodes advance
    lazily: an event only advances the node it concerns, never the
    whole cluster.
    """

    def __init__(
        self,
        n_nodes: int = 8,
        node: NodeSpec = ATOM_C2758,
        *,
        constants: SimConstants = DEFAULT_CONSTANTS,
        scheduler: SchedulerFn | None = None,
        recorder: str = "full",
        metrics_cache: RecontextCache | None = None,
        tracer=NULL_TRACER,
        roster: tuple[NodeSpec, ...] | None = None,
    ) -> None:
        if roster is not None:
            roster = tuple(roster)
            if not roster:
                raise ValueError("roster must contain at least one node")
            n_nodes = len(roster)
            node = roster[0]
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        specs = roster if roster is not None else (node,) * n_nodes
        #: Per-node specs in placement order (homogeneous or mixed).
        self.roster: tuple[NodeSpec, ...] = specs
        # Class tags: index of each node's spec in first-seen dedup
        # order.  A homogeneous roster tags every node 0, which keeps
        # recontext cache keys in today's untagged shape.
        unique: list[NodeSpec] = []
        tags: list[int] = []
        for spec in specs:
            for k, seen in enumerate(unique):
                if spec is seen or spec == seen:
                    tags.append(k)
                    break
            else:
                tags.append(len(unique))
                unique.append(spec)
        self.node_class_tags: tuple[int, ...] = tuple(tags)
        self.heterogeneous: bool = len(unique) > 1
        self.metrics_cache = (
            metrics_cache if metrics_cache is not None else RecontextCache()
        )
        self.telemetry = self.metrics_cache.telemetry
        self.tracer = tracer
        if tracer.enabled:
            tracer.name_process(0, "cluster")
        self.nodes = [
            NodeEngine(
                specs[i],
                node_id=i,
                constants=constants,
                cache=self.metrics_cache,
                recorder=recorder,
                tracer=tracer,
                class_tag=tags[i],
            )
            for i in range(n_nodes)
        ]
        self.constants = constants
        self.pending: PendingQueue = PendingQueue()
        self.results: list[JobResult] = []
        self.scheduler: SchedulerFn = scheduler or fifo_first_fit
        self._events = EventQueue()
        self._clock = 0.0
        self._free_index = FreeCoreIndex([n.free_cores for n in self.nodes])
        for nd in self.nodes:
            nd.capacity_listener = self._on_capacity_change

    @property
    def now(self) -> float:
        return self._clock

    def submit(self, spec: JobSpec) -> None:
        """Enqueue an arrival at ``spec.submit_time``."""
        self._events.schedule(spec.submit_time, ("arrival", spec))

    def notify_at(self, t: float) -> None:
        """Schedule a bare scheduler wake-up (external arrival hooks)."""
        self._events.schedule(t, ("wake",))

    def call_at(self, t: float, fn: Callable[["ClusterEngine", float], None]) -> None:
        """Schedule ``fn(cluster, t)`` as a first-class event.

        The hook by which external subsystems (fault injection, load
        shedding) act at deterministic points of the event order without
        the engine knowing about them.  ``fn`` is responsible for waking
        the scheduler if it changed placement state.
        """
        self._events.schedule(t, ("call", fn))

    @property
    def alive_nodes(self) -> list[NodeEngine]:
        """The nodes currently accepting work."""
        return [n for n in self.nodes if n.alive]

    def _on_capacity_change(self, engine: NodeEngine) -> None:
        self._free_index.set(engine.node_id, engine.free_cores)

    def first_fit_node(self, n_mappers: int) -> int | None:
        """Lowest node id with ≥ ``n_mappers`` free cores (None if none).

        O(log n) via the free-core segment tree — the same node the
        first-fit linear scan would pick (dead nodes report zero free
        cores and are skipped naturally).  First fit is class-oblivious
        on a mixed roster too.
        """
        return self._free_index.first_at_least(n_mappers)

    def place(self, spec: JobSpec, node_id: int) -> None:
        """Start a pending job on a node (scheduler API)."""
        if spec not in self.pending:
            raise ValueError(f"{spec.label} is not pending")
        engine = self.nodes[node_id]
        engine.advance_to(self._clock)
        engine.submit(spec)
        self.pending.remove(spec)
        self._arm(engine)

    def _arm(self, engine: NodeEngine) -> None:
        """(Re-)schedule the node's earliest completion, tagged with its
        current generation; any older entry for the node is now stale."""
        nxt = engine.next_completion()
        if nxt is None:
            return
        self._events.schedule(nxt[0], ("check", engine.node_id, engine.generation))

    def _handle(self, t: float, payload) -> None:
        kind = payload[0]
        self._clock = t
        if kind == "check":
            node_id, gen = payload[1], payload[2]
            engine = self.nodes[node_id]
            if gen != engine.generation:
                # Superseded by a membership change since it was armed.
                self.telemetry.record_event(stale=True)
                return
            self.telemetry.record_event()
            nxt = engine.next_completion()
            if nxt is None:  # pragma: no cover - defensive
                return
            due, spec = nxt
            if due > t + 1e-9:  # pragma: no cover - defensive re-arm
                self._events.schedule(due, ("check", node_id, engine.generation))
                return
            engine.advance_to(t)
            r = next(
                (x for x in engine.running if x.spec.job_id == spec.job_id),
                None,
            )
            if r is None:
                # Completed by an earlier coincident event: skip the
                # stale check gracefully instead of raising.
                self.telemetry.record_event(stale=True)
                return
            result = engine._complete(r)
            self.results.append(result)
            self._arm(engine)
            self.scheduler(self, t)
            if self.tracer.enabled:
                self.tracer.counter(
                    "pending jobs", t, {"count": len(self.pending)}
                )
        elif kind == "arrival":
            self.telemetry.record_event()
            self.pending.append(payload[1])
            self.scheduler(self, t)
            if self.tracer.enabled:
                self.tracer.counter(
                    "pending jobs", t, {"count": len(self.pending)}
                )
        elif kind == "wake":
            self.telemetry.record_event()
            self.scheduler(self, t)
        elif kind == "call":
            self.telemetry.record_event()
            payload[1](self, t)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown event {kind!r}")

    # ------------------------------------------------- incremental advance
    # The streaming service (`repro.service`) feeds the engine one
    # arrival at a time instead of scheduling the whole workload up
    # front.  Bit-identity with the offline `run()` hinges on event
    # *order*: offline, every arrival is scheduled before any derived
    # event, so at a tied timestamp arrivals fire first (lower heap
    # sequence numbers).  The incremental API reproduces that order by
    # construction — events strictly before the arrival are drained,
    # then the arrival is handled directly, ahead of any event queued
    # at the very same timestamp.

    def advance_until(self, t: float) -> None:
        """Process every queued event with time strictly before ``t``.

        Events due exactly at ``t`` stay queued: the caller is about to
        inject an arrival at ``t``, and offline ordering puts arrivals
        ahead of same-time derived events.
        """
        events = self._events
        while True:
            nxt = events.peek_time()
            if nxt is None or nxt >= t:
                return
            time, payload = events.pop()  # type: ignore[misc]
            self._handle(time, payload)

    def inject_arrival(self, spec: JobSpec) -> None:
        """Deliver one arrival *now*, as streaming ingestion does.

        Equivalent to ``submit(spec)`` followed by processing events up
        to (and including) the arrival — with the same event order the
        offline batch run produces, including exact-timestamp ties, so
        an incrementally fed engine stays bit-identical to an offline
        engine given the same job sequence.
        """
        t = spec.submit_time
        if t < self._clock - 1e-9:
            raise ValueError(
                f"arrival at {t} is in the engine's past ({self._clock})"
            )
        self.advance_until(t)
        self._handle(t, ("arrival", spec))

    def wake_now(self, t: float) -> None:
        """Run the scheduler at ``t``, after draining events before ``t``.

        The streaming counterpart of :meth:`notify_at` for callers
        (e.g. the ECoST controller front end) that register arrival
        state out of band and only need the scheduler invoked in the
        offline tie order — ahead of derived events queued at ``t``.
        """
        if t < self._clock - 1e-9:
            raise ValueError(
                f"wake at {t} is in the engine's past ({self._clock})"
            )
        self.advance_until(t)
        self._handle(t, ("wake",))

    def drain_events(self) -> None:
        """Process every remaining queued event (no stall check)."""
        self._events.run(self._handle)

    def run(self) -> list[JobResult]:
        """Process all events; returns completions in time order."""
        self.drain_events()
        if self.pending or any(n.running for n in self.nodes):
            raise RuntimeError(
                "simulation stalled with unfinished jobs; "
                "the scheduler never placed: "
                + ", ".join(s.label for s in self.pending)
            )
        return self.results

    # --------------------------------------------------------- accounting
    @property
    def makespan(self) -> float:
        if not self.results:
            return 0.0
        return max(r.finish_time for r in self.results)

    def total_energy(self, horizon: float | None = None) -> float:
        """Whole-cluster energy over [0, horizon] (default: makespan).

        Idle nodes draw idle power for the entire horizon — exactly the
        accounting a wall-power meter on every node would report.
        O(1) per node: the horizon covers every busy interval, so each
        node answers from its running prefix sums.
        """
        h = self.makespan if horizon is None else horizon
        return sum(n.energy_between(0.0, h) for n in self.nodes)

    def edp(self) -> float:
        """Cluster EDP of the completed workload: energy × makespan."""
        t = self.makespan
        return self.total_energy(t) * t

    def conformance_snapshot(self) -> dict:
        """Cluster-wide accounting state for the conformance suite.

        Aggregates every node's :meth:`NodeEngine.oracle_snapshot` plus
        the cluster-level invariant inputs (pending queue, result
        count), so oracle checks can pin the *internals* that makespan
        and energy are derived from.
        """
        return {
            "now": self.now,
            "pending": [s.label for s in self.pending],
            "n_results": len(self.results),
            "makespan": self.makespan,
            "nodes": [n.oracle_snapshot() for n in self.nodes],
        }


def fifo_first_fit(cluster: ClusterEngine, t: float) -> None:
    """Default scheduler: place pending jobs FIFO onto first fitting node.

    Places the queue head on the lowest-indexed node with enough free
    cores until the head fits nowhere — the first blocked job blocks
    the queue (head-of-line blocking is intentional: FIFO order).
    Candidate lookup is O(log nodes) through the cluster's free-core
    index (:meth:`ClusterEngine.first_fit_node`), so a scheduler
    invocation costs O(placements · log nodes).  The O(pending · nodes)
    scan it replaced lives on as the reference model in
    ``tests/test_engine_fastpath.py`` and ``tests/test_scale_property.py``.
    """
    pending = cluster.pending
    while pending:
        spec = pending[0]
        node_id = cluster.first_fit_node(spec.config.n_mappers)
        if node_id is None:
            return
        cluster.place(spec, node_id)
