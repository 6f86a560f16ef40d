"""Process-pool fan-out for configuration sweeps.

ECoST's knowledge-discovery loop is an embarrassingly parallel grid:
per-pair sweeps over (frequency, HDFS block size, mapper count) ×
core partitions, repeated for every training pair.  This module fans
that work out over a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping three guarantees the rest of the repository relies on:

* **Determinism** — results are reassembled in submission order and
  the chunk-merge path is bit-identical to the serial full-grid path
  (``tests/test_parallel_executor.py`` asserts exact equality), so a
  database built with ``REPRO_WORKERS=8`` equals one built serially.
* **Serial fallback** — with one worker (the default, and whenever
  ``REPRO_WORKERS=1``) no pool or pickling is involved at all; tasks
  run inline in the calling process.
* **Load balancing** — pair sweeps are chunked by (pair, frequency
  block): the first application's frequency axis is the outermost
  axis of the pair grid, so per-chunk results concatenate into the
  canonical full grid (see ``pair_config_grid``).

Workers default to the ``REPRO_WORKERS`` environment variable
(``1`` = serial, ``0``/``auto`` = one per CPU core).

The payload of a full :class:`PairSweepResult` is ~1 MB of metric
arrays, which can dominate the 1-2 ms its grid takes to evaluate; use
:meth:`SweepExecutor.sweep_pairs_best` when only the optimum matters
(database construction) — its per-task payload is a few hundred bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import (
    PairSweepResult,
    SoloSweepResult,
    merge_pair_sweeps,
    sweep_pair,
    sweep_solo,
)
from repro.telemetry.counters import SweepTelemetry
from repro.telemetry.tracing import NULL_TRACER, SWEEP_PID
from repro.workloads.base import AppInstance

#: Environment variable selecting the worker count.
WORKERS_ENV = "REPRO_WORKERS"


def worker_count(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    Explicit ``workers`` wins; otherwise :data:`WORKERS_ENV` is
    consulted (default ``1``).  ``0`` or ``auto`` mean one worker per
    CPU core; anything else must be a positive integer.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1").strip().lower()
        if raw in ("0", "auto"):
            return os.cpu_count() or 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a non-negative integer or 'auto', got {raw!r}"
            ) from None
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    return workers


def _timed_call(fn: Callable[[Any], Any], item: Any) -> tuple[Any, str, float, float]:
    """Run one task, reporting (result, worker id, start, end).

    Start/end are ``time.perf_counter()`` readings; on the platforms we
    fan out on that clock is system-wide (CLOCK_MONOTONIC), so pool
    workers' readings share the parent's epoch and per-worker trace
    spans line up on one wall-clock timeline.
    """
    t0 = time.perf_counter()
    result = fn(item)
    return result, str(os.getpid()), t0, time.perf_counter()


# ----------------------------------------------------- task functions
# Module-level so they pickle into pool workers.
def _solo_task(item: tuple[AppInstance, NodeSpec, SimConstants]) -> SoloSweepResult:
    instance, node, constants = item
    return sweep_solo(instance, node=node, constants=constants)


def _pair_chunk_task(
    item: tuple[AppInstance, AppInstance, tuple[float, ...], NodeSpec, SimConstants]
) -> PairSweepResult:
    a, b, freqs_a, node, constants = item
    return sweep_pair(a, b, node=node, constants=constants, freqs_a=freqs_a)


@dataclass(frozen=True)
class _BestOfChunk:
    """Optimum of one frequency chunk, positioned in the full grid."""

    offset: int  # index of the chunk's first grid point in the full grid
    local_index: int
    best_edp: float
    config_a: JobConfig
    config_b: JobConfig

    @property
    def global_index(self) -> int:
        return self.offset + self.local_index


def _pair_best_task(
    item: tuple[int, AppInstance, AppInstance, tuple[float, ...], NodeSpec, SimConstants]
) -> _BestOfChunk:
    """Sweep one frequency chunk but ship back only its optimum.

    ``offset`` lets the merge reproduce the exact tie-breaking of
    ``np.argmin`` over the full grid (first occurrence wins).
    """
    offset, a, b, freqs_a, node, constants = item
    sweep = sweep_pair(a, b, node=node, constants=constants, freqs_a=freqs_a)
    i = sweep.best_index
    cfg_a, cfg_b = sweep.configs_at(i)
    return _BestOfChunk(
        offset=offset,
        local_index=i,
        best_edp=float(sweep.edp[i]),
        config_a=cfg_a,
        config_b=cfg_b,
    )


@dataclass(frozen=True)
class PairSweepBest:
    """The optimum of one full pair sweep (cheap cross-process payload)."""

    instance_a: AppInstance
    instance_b: AppInstance
    best_index: int
    best_edp: float
    best_configs: tuple[JobConfig, JobConfig]


class SweepExecutor:
    """Fans sweep batches out over a process pool.

    Parameters
    ----------
    workers:
        Process count; ``None`` reads :data:`WORKERS_ENV` (default 1 =
        serial inline execution), ``0`` means one per CPU core.
    freq_chunk:
        Frequency levels of the first application per pair-sweep task.
        Smaller chunks mean more, smaller tasks (better balance, more
        IPC).  The default of half the DVFS ladder gives 2 tasks per
        pair on the Atom's 4-level ladder.
    telemetry:
        Optional :class:`SweepTelemetry` receiving per-task worker wall
        times, batch walls, and artifact-cache deltas.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        freq_chunk: int | None = None,
        telemetry: SweepTelemetry | None = None,
        tracer=None,
    ) -> None:
        self.workers = worker_count(workers)
        if freq_chunk is not None and freq_chunk < 1:
            raise ValueError(f"freq_chunk must be >= 1, got {freq_chunk}")
        self.freq_chunk = freq_chunk
        self.telemetry = telemetry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Wall-clock origin for trace spans (sweep time is real time,
        # unlike the engine's simulated seconds).
        self._wall0 = time.perf_counter()
        self._batches = 0
        if self.tracer.enabled:
            self.tracer.name_process(SWEEP_PID, "sweep executor")

    # ------------------------------------------------------- plumbing
    def _record(self, worker: str, wall_s: float) -> None:
        if self.telemetry is not None:
            self.telemetry.record_task(worker, wall_s)

    def _cache_snapshot(self) -> tuple[int, int]:
        # Imported lazily: repro.experiments.artifacts imports modules
        # that themselves construct SweepExecutors.
        from repro.experiments.artifacts import cache_stats

        stats = cache_stats()
        return stats.hits, stats.misses

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Ordered map of a picklable function over items.

        Serial (inline) with one worker; otherwise fanned out over a
        process pool.  Results always come back in input order.
        """
        items = list(items)
        if not items:
            return []
        t0 = time.perf_counter()
        hits0 = misses0 = 0
        if self.telemetry is not None:
            hits0, misses0 = self._cache_snapshot()
        if self.workers == 1 or len(items) == 1:
            out = []
            for item in items:
                result, worker, ts, te = _timed_call(fn, item)
                self._record(worker, te - ts)
                self._trace_task(fn, worker, ts, te)
                out.append(result)
        else:
            # fork (where available) skips re-importing the package in
            # every worker; spawn remains the portable fallback.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            n_workers = min(self.workers, len(items))
            chunksize = max(1, len(items) // (n_workers * 4))
            out = []
            with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
                for result, worker, ts, te in pool.map(
                    partial(_timed_call, fn), items, chunksize=chunksize
                ):
                    self._record(worker, te - ts)
                    self._trace_task(fn, worker, ts, te)
                    out.append(result)
        if self.telemetry is not None:
            hits1, misses1 = self._cache_snapshot()
            self.telemetry.record_cache(hits1 - hits0, misses1 - misses0)
            self.telemetry.record_batch(time.perf_counter() - t0)
        if self.tracer.enabled:
            self._batches += 1
            self.tracer.span(
                f"batch {getattr(fn, '__name__', 'task')} x{len(items)}",
                "sweep",
                max(t0 - self._wall0, 0.0),
                max(time.perf_counter() - self._wall0, 0.0),
                pid=SWEEP_PID,
                args={"tasks": len(items), "workers": self.workers},
            )
        return out

    def _trace_task(self, fn, worker: str, ts: float, te: float) -> None:
        """One per-task span on the worker's thread row (wall clock)."""
        if not self.tracer.enabled:
            return
        try:
            tid = int(worker)
        except ValueError:  # pragma: no cover - pid is always numeric
            tid = 0
        self.tracer.name_thread(SWEEP_PID, tid, f"worker {worker}")
        self.tracer.span(
            getattr(fn, "__name__", "task"),
            "sweep",
            max(ts - self._wall0, 0.0),
            max(te - self._wall0, 0.0),
            pid=SWEEP_PID,
            tid=tid,
        )

    def _freq_chunks(self, node: NodeSpec) -> list[tuple[float, ...]]:
        freqs = tuple(node.frequencies)
        size = self.freq_chunk
        if size is None:
            size = max(1, len(freqs) // 2)
        return [freqs[i : i + size] for i in range(0, len(freqs), size)]

    # -------------------------------------------------------- batches
    def sweep_solos(
        self,
        instances: Sequence[AppInstance],
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> list[SoloSweepResult]:
        """All 160-point standalone sweeps, one task per instance."""
        return self.map(_solo_task, [(inst, node, constants) for inst in instances])

    def sweep_pairs(
        self,
        pairs: Sequence[tuple[AppInstance, AppInstance]],
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> list[PairSweepResult]:
        """Full pair sweeps, chunked by (pair, frequency block).

        Results are bit-identical to calling :func:`sweep_pair` on each
        pair serially (same array order, same ``best_index``).
        """
        pairs = list(pairs)
        if self.workers == 1:
            # Inline fast path: no chunk-merge copies; the equivalence
            # test pins the chunked path to this result exactly.
            return self.map(
                _pair_chunk_task,
                [(a, b, None, node, constants) for a, b in pairs],
            )
        chunks = self._freq_chunks(node)
        tasks = [
            (a, b, chunk, node, constants)
            for a, b in pairs
            for chunk in chunks
        ]
        results = self.map(_pair_chunk_task, tasks)
        merged = []
        for i in range(len(pairs)):
            merged.append(
                merge_pair_sweeps(results[i * len(chunks) : (i + 1) * len(chunks)])
            )
        return merged

    def sweep_pairs_best(
        self,
        pairs: Sequence[tuple[AppInstance, AppInstance]],
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> list[PairSweepBest]:
        """Per-pair optima only — the cheap path for database builds.

        Workers ship back a few hundred bytes per chunk instead of the
        ~1 MB full metric arrays; the reduction reproduces the exact
        first-occurrence tie-breaking of a full-grid ``argmin``.
        """
        pairs = list(pairs)
        chunks = self._freq_chunks(node)
        # Offsets need the per-chunk grid sizes; a chunk covers the
        # full grid length scaled by its share of the frequency axis.
        from repro.model.config import pair_config_grid

        full_len = len(pair_config_grid(node)[0])
        per_level = full_len // len(tuple(node.frequencies))

        tasks = []
        for a, b in pairs:
            offset = 0
            for chunk in chunks:
                tasks.append((offset, a, b, chunk, node, constants))
                offset += per_level * len(chunk)
        bests = self.map(_pair_best_task, tasks)
        out = []
        n_chunks = len(chunks)
        for i, (a, b) in enumerate(pairs):
            parts = bests[i * n_chunks : (i + 1) * n_chunks]
            edps = np.array([p.best_edp for p in parts])
            # np.argmin over the full grid returns the *first* global
            # index achieving the minimum; replicate that tie-breaking.
            winner = min(
                (p for p in parts if p.best_edp == edps.min()),
                key=lambda p: p.global_index,
            )
            out.append(
                PairSweepBest(
                    instance_a=a,
                    instance_b=b,
                    best_index=winner.global_index,
                    best_edp=winner.best_edp,
                    best_configs=(winner.config_a, winner.config_b),
                )
            )
        return out
