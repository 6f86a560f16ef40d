"""Vectorised brute-force sweeps over configuration grids.

The paper's oracle techniques (ILAO, COLAO, UB) all rest on exhaustive
search: 160 configurations per standalone application, and the full
knob × core-partition cross product per co-located pair (84,480 runs
across the 528 pair workloads, §7).  These functions evaluate the cost
kernel once over the whole grid as NumPy arrays — no Python loop per
configuration — so a full-paper sweep takes seconds instead of the
testbed's weeks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig, config_grid, pair_config_grid
from repro.model.costmodel import JobMetrics, PairMetrics, pair_metrics, standalone_metrics
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
    """Exhaustive co-located pair sweep."""

    instance_a: AppInstance
    instance_b: AppInstance
    freq_a: np.ndarray
    block_a: np.ndarray
    mappers_a: np.ndarray
    freq_b: np.ndarray
    block_b: np.ndarray
    mappers_b: np.ndarray
    metrics: PairMetrics

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
    2,800 co-located configurations per pair.
    """
    f1, b1, m1, f2, b2, m2 = pair_config_grid(node, partitions=partitions)
    metrics = pair_metrics(
        instance_a.profile, instance_a.data_bytes, f1, b1, m1,
        instance_b.profile, instance_b.data_bytes, f2, b2, m2,
        node=node, constants=constants,
    )
    return PairSweepResult(
        instance_a=instance_a, instance_b=instance_b,
        freq_a=f1, block_a=b1, mappers_a=m1,
        freq_b=f2, block_b=b2, mappers_b=m2,
        metrics=metrics,
    )
