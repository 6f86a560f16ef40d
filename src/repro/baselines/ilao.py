"""ILAO: Individually-Located Application Optimisation (§4.2).

Runs applications serially, each tuned alone by exhaustive search over
its 160-point configuration space.  For a pair of applications the
composed metric is serial: makespan is the sum of the two tuned
durations and energy the sum of the two whole-node energies — the
baseline COLAO is compared against in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import SoloSweepResult, sweep_solo
from repro.workloads.base import AppInstance


@dataclass(frozen=True)
class IlaoResult:
    """Oracle-tuned standalone execution of one instance."""

    instance: AppInstance
    config: JobConfig
    duration: float
    energy: float
    edp: float
    sweep: SoloSweepResult

    @property
    def power(self) -> float:
        return self.energy / self.duration


def ilao_best(
    instance: AppInstance,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> IlaoResult:
    """Exhaustively tune one application running alone."""
    sweep = sweep_solo(instance, node=node, constants=constants)
    i = sweep.best_index
    return IlaoResult(
        instance=instance,
        config=sweep.best_config,
        duration=float(sweep.metrics.duration[i]),
        energy=float(sweep.metrics.energy[i]),
        edp=float(sweep.metrics.edp[i]),
        sweep=sweep,
    )


def ilao_pair_edp(a: IlaoResult, b: IlaoResult) -> float:
    """EDP of a tuned pair run back to back (serial composition)."""
    makespan = a.duration + b.duration
    energy = a.energy + b.energy
    return float(energy * makespan)
