"""The offline stage's sweep reductions.

Public surface:

* :func:`sweep_solos` — every instance's 160-point standalone sweep.
* :func:`sweep_pairs_sampled` — each pair's optimum and its sweep at
  sampled grid indices, one full sweep alive at a time.
* :func:`sweep_pairs_best` — each pair's optimum alone.
* :class:`PairSweepBest` — the lightweight per-pair optimum payload.
* :class:`PairSample` — a pair sweep's knobs and EDP at sampled grid
  indices (the MLM-STP training rows' payload).

The sweeps run in the calling process.  The package path stays
because ``perfbench/tracer.py`` wraps the sweep kernels as globals of
``repro.parallel.executor``.
"""

from repro.parallel.executor import (
    PairSample,
    PairSweepBest,
    sample_pair_sweep,
    sweep_pairs_best,
    sweep_pairs_sampled,
    sweep_solos,
)

__all__ = [
    "PairSample",
    "PairSweepBest",
    "sample_pair_sweep",
    "sweep_pairs_best",
    "sweep_pairs_sampled",
    "sweep_solos",
]
