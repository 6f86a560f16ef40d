"""COLAO: Co-Located Application Optimisation (§4.2).

The offline brute-force oracle for a co-located pair: every
combination of per-application frequency, HDFS block size, and core
partitioning is evaluated and the EDP-minimal setting returned.  This
is the "upper bound" every self-tuning prediction technique is scored
against in §7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import PairSweepResult, sweep_pair
from repro.workloads.base import AppInstance


@dataclass(frozen=True)
class ColaoResult:
    """Oracle co-location of one pair."""

    instance_a: AppInstance
    instance_b: AppInstance
    config_a: JobConfig
    config_b: JobConfig
    makespan: float
    energy: float
    edp: float
    sweep: PairSweepResult

    def partition(self) -> tuple[int, int]:
        return self.config_a.n_mappers, self.config_b.n_mappers


def colao_best(
    instance_a: AppInstance,
    instance_b: AppInstance,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    partitions: list[tuple[int, int]] | None = None,
) -> ColaoResult:
    """Exhaustively tune a co-located pair (the COLAO oracle)."""
    sweep = sweep_pair(
        instance_a, instance_b, node=node, constants=constants, partitions=partitions
    )
    i = sweep.best_index
    cfg_a, cfg_b = sweep.configs_at(i)
    return ColaoResult(
        instance_a=instance_a,
        instance_b=instance_b,
        config_a=cfg_a,
        config_b=cfg_b,
        makespan=float(sweep.metrics.makespan[i]),
        energy=float(sweep.metrics.energy[i]),
        edp=float(sweep.metrics.edp[i]),
        sweep=sweep,
    )
