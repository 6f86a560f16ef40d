"""Vectorised brute-force sweeps over configuration grids.

The paper's oracle techniques (ILAO, COLAO, UB) all rest on exhaustive
search: 160 configurations per standalone application, and the full
knob × core-partition cross product per co-located pair (84,480 runs
across the 528 pair workloads, §7).  These functions evaluate the cost
kernel once over the whole grid as NumPy arrays — no Python loop per
configuration — so a full-paper sweep takes seconds instead of the
testbed's weeks.

A pair sweep is factored.  Each job's metrics depend only on its own
frequency and block size and on the core split, so
:func:`sweep_pair` evaluates each job at those points (140 per side on
the default grid, not 2,800), computes the cache and footprint
couplings once per core split, and finishes with
:func:`~repro.model.costmodel.pair_step`, the last step of
:func:`~repro.model.costmodel.pair_metrics`, which gathers each grid
point's two job points onto the pair grid.  Every
operation is the same elementwise IEEE-754 arithmetic the unfactored
kernel does, so the result equals ``pair_metrics`` on the same grid
bit for bit (``tests/test_model_sweep.py`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig, config_grid, core_partitions
from repro.model.costmodel import (
    JobMetrics,
    PairMetrics,
    _cache_coupling,
    _footprint_coupling,
    pair_step,
    standalone_metrics,
)
from repro.workloads.base import AppInstance


@dataclass(frozen=True)
class SoloSweepResult:
    """Exhaustive single-application sweep."""

    instance: AppInstance
    freq: np.ndarray
    block: np.ndarray
    mappers: np.ndarray
    metrics: JobMetrics

    @property
    def edp(self) -> np.ndarray:
        return self.metrics.edp

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.metrics.edp))

    @property
    def best_config(self) -> JobConfig:
        i = self.best_index
        return JobConfig(
            frequency=float(self.freq[i]),
            block_size=int(self.block[i]),
            n_mappers=int(self.mappers[i]),
        )

    @property
    def best_edp(self) -> float:
        return float(self.metrics.edp[self.best_index])

    def config_at(self, index: int) -> JobConfig:
        return JobConfig(
            frequency=float(self.freq[index]),
            block_size=int(self.block[index]),
            n_mappers=int(self.mappers[index]),
        )


@dataclass(frozen=True)
class PairSweepResult:
    """Exhaustive co-located pair sweep.

    ``metrics`` holds the pair's figures at every grid point (its
    ``job_a``/``job_b`` are None).  Each job's own metrics are kept once
    per job point (own frequency, own block size, core split) in
    ``job_a``/``job_b``; ``take_a[g]`` and ``take_b[g]`` are the job
    points of grid point ``g``.  The grid columns and take arrays are
    read-only and shared by every sweep of the same grid shape.
    """

    instance_a: AppInstance
    instance_b: AppInstance
    freq_a: np.ndarray
    block_a: np.ndarray
    mappers_a: np.ndarray
    freq_b: np.ndarray
    block_b: np.ndarray
    mappers_b: np.ndarray
    metrics: PairMetrics
    job_a: JobMetrics
    job_b: JobMetrics
    take_a: np.ndarray
    take_b: np.ndarray

    @property
    def edp(self) -> np.ndarray:
        return self.metrics.edp

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.metrics.edp))

    @property
    def best_edp(self) -> float:
        return float(self.metrics.edp[self.best_index])

    def configs_at(self, index: int) -> tuple[JobConfig, JobConfig]:
        return (
            JobConfig(
                frequency=float(self.freq_a[index]),
                block_size=int(self.block_a[index]),
                n_mappers=int(self.mappers_a[index]),
            ),
            JobConfig(
                frequency=float(self.freq_b[index]),
                block_size=int(self.block_b[index]),
                n_mappers=int(self.mappers_b[index]),
            ),
        )

    @property
    def best_configs(self) -> tuple[JobConfig, JobConfig]:
        return self.configs_at(self.best_index)

    def best_for_partition(self, m_a: int, m_b: int) -> tuple[int, float]:
        """(index, EDP) of the best grid point with the given core split."""
        mask = (self.mappers_a == m_a) & (self.mappers_b == m_b)
        if not mask.any():
            raise ValueError(f"partition ({m_a}, {m_b}) not in the sweep grid")
        idx = np.flatnonzero(mask)
        local = int(np.argmin(self.metrics.edp[idx]))
        return int(idx[local]), float(self.metrics.edp[idx[local]])


def sweep_solo(
    instance: AppInstance,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> SoloSweepResult:
    """Evaluate all 160 standalone configurations for one instance."""
    f, b, m = config_grid(node)
    metrics = standalone_metrics(
        instance.profile, instance.data_bytes, f, b, m,
        node=node, constants=constants,
    )
    return SoloSweepResult(instance=instance, freq=f, block=b, mappers=m, metrics=metrics)


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """One pair-grid shape and its per-job factoring, all read-only.

    The grid is :func:`~repro.model.config.pair_config_grid`'s meshgrid
    over (f1, b1, f2, b2, core split).  A *job point* is one (own
    frequency, own block size, core split); ``take_a[g]`` and
    ``take_b[g]`` are the job points of grid point ``g``'s two jobs.
    """

    #: The grid's six columns (f1, b1, m1, f2, b2, m2).
    grid: tuple[np.ndarray, ...]
    #: Each core split's mapper counts.
    split_a: np.ndarray
    split_b: np.ndarray
    #: Each job point's frequency, block size and core split.
    freq: np.ndarray
    block: np.ndarray
    split: np.ndarray
    take_a: np.ndarray
    take_b: np.ndarray


@lru_cache(maxsize=8)
def _pair_plan(
    n_cores: int,
    freqs: tuple[float, ...],
    partitions: tuple[tuple[int, int], ...] | None,
) -> _PairPlan:
    """The plan of one grid shape, built once.

    Keyed by the core count and the frequency values, not by the
    :class:`NodeSpec`: node specs compare their DVFS tables by identity,
    so two equal nodes (a deep copy, say) would each build their own.
    """
    parts = np.asarray(core_partitions(n_cores, partitions), dtype=float)
    shape = (len(freqs), len(HDFS_BLOCK_SIZES), len(parts))
    f, b, p = (a.reshape(-1) for a in np.indices(shape))
    freq = np.asarray(freqs, dtype=float)[f]
    block = np.asarray(HDFS_BLOCK_SIZES, dtype=float)[b]
    # Grid point (f1, b1, f2, b2, p), flattened in meshgrid "ij" order.
    f1, b1, f2, b2, gp = (
        a.reshape(-1) for a in np.indices(shape[:2] * 2 + shape[2:])
    )
    take_a = (f1 * shape[1] + b1) * shape[2] + gp
    take_b = (f2 * shape[1] + b2) * shape[2] + gp
    split_a, split_b = parts[:, 0], parts[:, 1]
    plan = _PairPlan(
        grid=(
            freq[take_a], block[take_a], split_a[gp],
            freq[take_b], block[take_b], split_b[gp],
        ),
        split_a=split_a,
        split_b=split_b,
        freq=freq,
        block=block,
        split=p,
        take_a=take_a,
        take_b=take_b,
    )
    for array in (*plan.grid, split_a, split_b, freq, block, p, take_a, take_b):
        array.flags.writeable = False
    return plan


def sweep_pair(
    instance_a: AppInstance,
    instance_b: AppInstance,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    partitions: list[tuple[int, int]] | None = None,
) -> PairSweepResult:
    """Evaluate the full pair grid (knobs × core partitions) for a pair.

    Default grid: (4·5)² knob combinations × 7 full core partitions =
    2,800 co-located configurations per pair.  The result equals
    :func:`~repro.model.costmodel.pair_metrics` over
    :func:`~repro.model.config.pair_config_grid` bit for bit.
    """
    plan = _pair_plan(
        node.n_cores,
        node.frequencies,
        None if partitions is None else tuple(map(tuple, partitions)),
    )
    pa, pb = instance_a.profile, instance_b.profile
    ma, mb = plan.split_a, plan.split_b
    scale_a, scale_b = _cache_coupling(pa, ma, pb, mb, node, constants)
    disk_scale = _footprint_coupling(pa, ma, pb, mb, node, constants)[plan.split]
    own_a, own_b = ma[plan.split], mb[plan.split]
    job_a = standalone_metrics(
        pa, instance_a.data_bytes, plan.freq, plan.block, own_a,
        node=node, constants=constants,
        mpki_scale=scale_a[plan.split], disk_traffic_scale=disk_scale,
        extra_streams=own_b,
    )
    job_b = standalone_metrics(
        pb, instance_b.data_bytes, plan.freq, plan.block, own_b,
        node=node, constants=constants,
        mpki_scale=scale_b[plan.split], disk_traffic_scale=disk_scale,
        extra_streams=own_a,
    )
    f1, b1, m1, f2, b2, m2 = plan.grid
    return PairSweepResult(
        instance_a=instance_a, instance_b=instance_b,
        freq_a=f1, block_a=b1, mappers_a=m1,
        freq_b=f2, block_b=b2, mappers_b=m2,
        metrics=pair_step(job_a, job_b, node, plan.take_a, plan.take_b),
        job_a=job_a, job_b=job_b, take_a=plan.take_a, take_b=plan.take_b,
    )
