"""Process-pool fan-out for configuration sweeps.

ECoST's knowledge-discovery loop is an embarrassingly parallel grid:
one exhaustive sweep over (frequency, HDFS block size, mapper count) ×
core partitions per training pair.  This module fans that work out
over a :class:`concurrent.futures.ProcessPoolExecutor`, one task per
pair (or per instance, or per item of :meth:`SweepExecutor.map`),
while keeping two guarantees the rest of the repository relies on:

* **Determinism** — results are reassembled in submission order and
  every task is the same full-grid call the serial path makes
  (``tests/test_parallel_executor.py`` asserts exact equality), so a
  database built with ``REPRO_WORKERS=8`` equals one built serially.
* **Serial fallback** — with one worker (the default, and whenever
  ``REPRO_WORKERS=1``) no pool or pickling is involved at all; tasks
  run inline in the calling process.

Workers default to the ``REPRO_WORKERS`` environment variable
(``1`` = serial, ``0``/``auto`` = one per CPU core).

A pair task reduces its sweep before it returns.  A full
:class:`~repro.model.sweep.PairSweepResult` holds ~1 MB of metric
arrays, while the offline stage reads only each pair's optimum and,
for the MLM-STP training rows, the knobs and EDP at a few hundred
sampled grid points.  :meth:`SweepExecutor.sweep_pairs_sampled` ships
exactly that (about 11 KB per pair at 200 rows) and
:meth:`SweepExecutor.sweep_pairs_best` the optimum alone (under 1 KB),
so no full sweep outlives the task that ran it, inline or in a pool
worker.
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
from repro.model.sweep import PairSweepResult, SoloSweepResult, sweep_pair, sweep_solo
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


def _pair_task(
    item: tuple[AppInstance, AppInstance, NodeSpec, SimConstants, np.ndarray | None]
) -> tuple[PairSweepBest, PairSample | None]:
    """Sweep one pair; ship back its optimum and its rows at ``idx``.

    With ``idx`` None only the optimum is returned; otherwise the rows
    are :func:`sample_pair_sweep`'s.
    """
    a, b, node, constants, idx = item
    sweep = sweep_pair(a, b, node=node, constants=constants)
    i = sweep.best_index
    best = PairSweepBest(
        instance_a=a,
        instance_b=b,
        best_index=i,
        best_edp=float(sweep.edp[i]),
        best_configs=sweep.configs_at(i),
    )
    return best, None if idx is None else sample_pair_sweep(sweep, idx)


def sample_pair_sweep(sweep: PairSweepResult, idx: np.ndarray) -> PairSample:
    """The sweep's knob columns and EDP at grid indices ``idx``.

    The optimum's grid index replaces ``idx[0]`` unless ``idx`` already
    holds it (on a copy), so training rows always include the optimum.
    """
    i = sweep.best_index
    if i not in idx:
        idx = idx.copy()
        idx[0] = i
    return PairSample(
        freq_a=sweep.freq_a[idx],
        block_a=sweep.block_a[idx],
        mappers_a=sweep.mappers_a[idx],
        freq_b=sweep.freq_b[idx],
        block_b=sweep.block_b[idx],
        mappers_b=sweep.mappers_b[idx],
        edp=sweep.edp[idx],
    )


@dataclass(frozen=True)
class PairSweepBest:
    """The optimum of one full pair sweep (cheap cross-process payload)."""

    instance_a: AppInstance
    instance_b: AppInstance
    best_index: int
    best_edp: float
    best_configs: tuple[JobConfig, JobConfig]


@dataclass(frozen=True, eq=False)
class PairSample:
    """One pair sweep's knob columns and EDP at sampled grid indices."""

    freq_a: np.ndarray
    block_a: np.ndarray
    mappers_a: np.ndarray
    freq_b: np.ndarray
    block_b: np.ndarray
    mappers_b: np.ndarray
    edp: np.ndarray


class SweepExecutor:
    """Fans sweep batches out over a process pool, one task per item.

    Parameters
    ----------
    workers:
        Process count; ``None`` reads :data:`WORKERS_ENV` (default 1 =
        serial inline execution), ``0`` means one per CPU core.
    telemetry:
        Optional :class:`SweepTelemetry` receiving per-task worker wall
        times, batch walls, and artifact-cache deltas.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        telemetry: SweepTelemetry | None = None,
        tracer=None,
    ) -> None:
        self.workers = worker_count(workers)
        self.telemetry = telemetry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Wall-clock origin for trace spans (sweep time is real time,
        # unlike the engine's simulated seconds).
        self._wall0 = time.perf_counter()
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

    def sweep_pairs_sampled(
        self,
        pairs: Sequence[tuple[AppInstance, AppInstance]],
        indices: Sequence[np.ndarray | None],
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> list[tuple[PairSweepBest, PairSample | None]]:
        """Each pair's optimum and its sweep at that pair's grid indices.

        One full 2,800-point sweep per pair, one task per pair; the
        task keeps the optimum and the rows at ``indices[k]`` (always
        including the optimum, see :func:`_pair_task`) and drops the
        sweep.  A None index set ships the optimum alone.
        """
        return self.map(
            _pair_task,
            [
                (a, b, node, constants, idx)
                for (a, b), idx in zip(pairs, indices, strict=True)
            ],
        )

    def sweep_pairs_best(
        self,
        pairs: Sequence[tuple[AppInstance, AppInstance]],
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> list[PairSweepBest]:
        """Per-pair optima only, for callers that read nothing else
        (Table 2)."""
        return [
            best
            for best, _ in self.sweep_pairs_sampled(
                pairs, [None] * len(pairs), node=node, constants=constants
            )
        ]
