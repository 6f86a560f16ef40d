"""Analytic cost model and vectorised configuration sweeps.

One array cost kernel (:mod:`repro.model.costmodel`) serves every
array caller: :mod:`repro.model.sweep` evaluates it over whole NumPy
grids of configurations — this is what makes the paper's 84,480-run
brute-force oracle (COLAO) tractable in seconds.

:mod:`repro.mapreduce.engine` replays the same per-job quantities event
by event through the kernel's scalar twin
(:func:`~repro.model.costmodel.standalone_metrics_scalar`), which is
over 10x cheaper per single-job call; tests hold the twin
bit-identical to the array kernel.
"""

from repro.model.calibration import SimConstants, DEFAULT_CONSTANTS
from repro.model.config import JobConfig, config_grid, pair_config_grid
from repro.model.costmodel import (
    JobMetrics,
    PairMetrics,
    distributed_metrics,
    pair_metrics,
    standalone_metrics,
)
from repro.model.sweep import (
    PairSweepResult,
    SoloSweepResult,
    sweep_pair,
    sweep_solo,
)

__all__ = [
    "SimConstants",
    "DEFAULT_CONSTANTS",
    "JobConfig",
    "config_grid",
    "pair_config_grid",
    "JobMetrics",
    "PairMetrics",
    "standalone_metrics",
    "pair_metrics",
    "distributed_metrics",
    "SoloSweepResult",
    "PairSweepResult",
    "sweep_solo",
    "sweep_pair",
]
