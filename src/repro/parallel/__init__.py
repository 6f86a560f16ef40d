"""Parallel sweep execution (process-pool fan-out with serial fallback).

Public surface:

* :class:`SweepExecutor` — ordered, deterministic fan-out of solo and
  pair sweeps (one task per instance or pair) and of arbitrary
  picklable functions (one task per item) over a process pool; serial
  inline execution when ``REPRO_WORKERS=1`` (the default).  It is the
  repository's only fan-out layer.
* :func:`worker_count` — ``REPRO_WORKERS`` resolution.
* :class:`PairSweepBest` — the lightweight per-pair optimum payload.
* :class:`PairSample` — a pair sweep's knobs and EDP at sampled grid
  indices (the MLM-STP training rows' payload).
"""

from repro.parallel.executor import (
    WORKERS_ENV,
    PairSample,
    PairSweepBest,
    SweepExecutor,
    worker_count,
)

__all__ = [
    "WORKERS_ENV",
    "PairSample",
    "PairSweepBest",
    "SweepExecutor",
    "worker_count",
]
