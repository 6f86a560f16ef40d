"""The sweep reductions of the offline stage and the experiment drivers.

ECoST's knowledge-discovery loop sweeps every training pair over
(frequency, HDFS block size, mapper count) × core partitions (§6).  One
2,800-point pair sweep is a single vectorised kernel call, so the
sweeps run in the calling process, one after another, in input order.

A full :class:`~repro.model.sweep.PairSweepResult` holds ~1 MB of metric
arrays, while the offline stage reads only each pair's optimum and, for
the MLM-STP training rows, the knobs and EDP at a few hundred sampled
grid points.  :func:`sweep_pairs_sampled` keeps exactly that (about
11 KB per pair at 200 rows) and :func:`sweep_pairs_best` the optimum
alone (under 1 KB), so no full sweep outlives the call that made it.

The module keeps its path because ``perfbench/tracer.py`` attributes
sweep time by wrapping ``sweep_pair`` and ``sweep_solo`` as globals of
this module; the reductions look both names up at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import PairSweepResult, SoloSweepResult, sweep_pair, sweep_solo
from repro.workloads.base import AppInstance


@dataclass(frozen=True)
class PairSweepBest:
    """The optimum of one full pair sweep."""

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


def _best(a: AppInstance, b: AppInstance, sweep: PairSweepResult) -> PairSweepBest:
    i = sweep.best_index
    return PairSweepBest(
        instance_a=a,
        instance_b=b,
        best_index=i,
        best_edp=float(sweep.edp[i]),
        best_configs=sweep.configs_at(i),
    )


def _sweep_sampled(
    a: AppInstance,
    b: AppInstance,
    idx: np.ndarray,
    node: NodeSpec,
    constants: SimConstants,
) -> tuple[PairSweepBest, PairSample]:
    # The full sweep is local to this call and dies on return.
    sweep = sweep_pair(a, b, node=node, constants=constants)
    return _best(a, b, sweep), sample_pair_sweep(sweep, idx)


def sweep_solos(
    instances: Sequence[AppInstance],
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[SoloSweepResult]:
    """All 160-point standalone sweeps, in input order."""
    return [sweep_solo(inst, node=node, constants=constants) for inst in instances]


def sweep_pairs_sampled(
    pairs: Sequence[tuple[AppInstance, AppInstance]],
    indices: Sequence[np.ndarray],
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[tuple[PairSweepBest, PairSample]]:
    """Each pair's optimum and its sweep at that pair's grid indices.

    One full 2,800-point sweep per pair, in pair order, reduced to the
    optimum and the rows at ``indices[k]`` (always including the
    optimum, see :func:`sample_pair_sweep`) before the next pair runs.
    """
    return [
        _sweep_sampled(a, b, idx, node, constants)
        for (a, b), idx in zip(pairs, indices, strict=True)
    ]


def sweep_pairs_best(
    pairs: Sequence[tuple[AppInstance, AppInstance]],
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[PairSweepBest]:
    """Per-pair optima only, for callers that read nothing else
    (Table 2)."""
    return [
        _best(a, b, sweep_pair(a, b, node=node, constants=constants))
        for a, b in pairs
    ]
