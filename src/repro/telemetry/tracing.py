"""Span-based structured tracing with Chrome trace-event export.

The paper's method is built on *observing* runs — Wattsup power
traces, perf counters, dstat rows (§2.5, §3.1) — and the reproduction
grew the same need: the engine, the ECoST controller and the fault
injector each produce events worth seeing on one timeline.  This
module is the shared substrate: a :class:`Tracer` collects *spans*
(named intervals with a category, a
process/thread placement, and structured args) plus instant and
counter events, and renders them to the Chrome trace-event JSON format
that Perfetto / ``about://tracing`` load directly.

Placement convention
--------------------
Chrome traces organise events into *processes* (pid) and *threads*
(tid).  We map simulation structure onto that hierarchy:

* pid ``0`` — the cluster row: scheduler/controller decisions, fault
  events, queue-depth counters.
* pid ``1 + node_id`` — one process per node; each job's lifetime span
  lives on tid ``job_id`` so co-resident jobs render as parallel rows.

Zero-overhead guarantee
-----------------------
Every instrumented hot path guards with ``if tracer.enabled:`` before
building args dicts, and the default tracer everywhere is the
:data:`NULL_TRACER` singleton whose methods are no-ops — a run with
tracing disabled performs one attribute read per *membership change*
(not per event) and allocates nothing.  Tracing is also purely
observational: it draws no random numbers and never touches engine
state, so enabling it cannot perturb a seeded run (pinned by
``tests/test_tracing.py`` and the golden byte-identity suite).

Timestamps are simulation seconds, scaled to microseconds on export
as the trace-event format expects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

#: Microseconds per timestamp unit (trace events use µs).
_TS_SCALE = 1e6


@dataclass(frozen=True)
class Span:
    """One named interval on the trace timeline."""

    name: str
    cat: str
    start: float  # seconds
    end: float  # seconds
    pid: int = 0
    tid: int = 0
    args: Mapping[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One zero-duration marker."""

    name: str
    cat: str
    t: float
    pid: int = 0
    tid: int = 0
    args: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class Counter:
    """One sample of a named counter series."""

    name: str
    t: float
    values: Mapping[str, float]
    pid: int = 0


class Tracer:
    """Collects spans/instants/counters; exports Chrome trace JSON.

    The tracer is append-only and order-independent: events may arrive
    out of timestamp order (nodes advance lazily) and are sorted on
    export.  All record methods are cheap (one dataclass append); the
    *caller* owns the ``if tracer.enabled:`` guard so that disabled
    runs skip argument construction entirely.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.counters: list[Counter] = []
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}

    # ----------------------------------------------------------- record
    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        pid: int = 0,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a complete interval (``end`` may equal ``start``)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self.spans.append(
            Span(name=name, cat=cat, start=start, end=end, pid=pid, tid=tid, args=args)
        )

    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        *,
        pid: int = 0,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        self.instants.append(
            Instant(name=name, cat=cat, t=t, pid=pid, tid=tid, args=args)
        )

    def counter(
        self,
        name: str,
        t: float,
        values: Mapping[str, float],
        *,
        pid: int = 0,
    ) -> None:
        self.counters.append(Counter(name=name, t=t, values=dict(values), pid=pid))

    def name_process(self, pid: int, name: str) -> None:
        self._process_names[pid] = name

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        self._thread_names[(pid, tid)] = name

    # ------------------------------------------------------------ query
    @property
    def n_events(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    def spans_by_cat(self, cat: str) -> list[Span]:
        """Spans of one category, sorted by start time."""
        return sorted(
            (s for s in self.spans if s.cat == cat), key=lambda s: (s.start, s.end)
        )

    # ----------------------------------------------------------- export
    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Uses the *JSON object format* (``{"traceEvents": [...]}``):
        complete events (``ph="X"``) for spans, instants (``ph="i"``),
        counters (``ph="C"``) and metadata events (``ph="M"``) naming
        the process/thread rows.  Timestamps are microseconds.
        """
        events: list[dict] = []
        for pid, name in sorted(self._process_names.items()):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        timed: list[tuple[float, int, dict]] = []
        for s in self.spans:
            ev = {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "ts": s.start * _TS_SCALE,
                "dur": s.duration * _TS_SCALE,
                "pid": s.pid,
                "tid": s.tid,
            }
            if s.args:
                ev["args"] = dict(s.args)
            timed.append((s.start, 0, ev))
        for i in self.instants:
            ev = {
                "ph": "i",
                "s": "t",
                "name": i.name,
                "cat": i.cat,
                "ts": i.t * _TS_SCALE,
                "pid": i.pid,
                "tid": i.tid,
            }
            if i.args:
                ev["args"] = dict(i.args)
            timed.append((i.t, 1, ev))
        for c in self.counters:
            timed.append(
                (
                    c.t,
                    2,
                    {
                        "ph": "C",
                        "name": c.name,
                        "ts": c.t * _TS_SCALE,
                        "pid": c.pid,
                        "args": dict(c.values),
                    },
                )
            )
        timed.sort(key=lambda e: (e[0], e[1]))
        events.extend(ev for _t, _k, ev in timed)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Serialise :meth:`to_chrome` to ``path``; returns the path."""
        path = Path(path)
        # default=str: arg values are usually primitives, but exotic
        # ones (enums, configs) degrade to their repr instead of
        # aborting the export.
        path.write_text(json.dumps(self.to_chrome(), default=str) + "\n")
        return path


class NullTracer:
    """The disabled tracer: every record method is a no-op.

    ``enabled`` is False so instrumented code can skip argument
    construction; calling the methods anyway is still safe (and free of
    allocation).  A single shared instance (:data:`NULL_TRACER`) is the
    default everywhere.
    """

    __slots__ = ()
    enabled = False

    def span(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def counter(self, *args, **kwargs) -> None:
        pass

    def name_process(self, *args, **kwargs) -> None:
        pass

    def name_thread(self, *args, **kwargs) -> None:
        pass

    @property
    def n_events(self) -> int:
        return 0


#: Shared disabled tracer — the default for every instrumented layer.
NULL_TRACER = NullTracer()


# ------------------------------------------------------------ validation
_PHASES = {"X", "i", "C", "M", "B", "E", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(payload: object) -> list[str]:
    """Structural validation of a Chrome trace-event JSON object.

    Returns a list of problems (empty = valid).  Checks the containment
    contract Perfetto relies on: the object format envelope, required
    per-phase fields, numeric non-negative timestamps/durations, and
    args being objects.  Used by the CI trace-smoke job and the test
    suite; intentionally dependency-free.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"trace must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event must be an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if not isinstance(ev.get("pid"), int):
            errors.append(f"{where}: missing integer 'pid'")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'dur' must be a non-negative number")
        if ph == "i" and ev.get("s") not in (None, "g", "p", "t"):
            errors.append(f"{where}: instant scope must be one of g/p/t")
        if ph in ("C", "M") and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: phase {ph!r} requires an 'args' object")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
    return errors
