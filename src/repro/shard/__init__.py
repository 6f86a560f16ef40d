"""Sharded scenario execution with deterministic merges.

Partitions independent work — scenario batches, Monte-Carlo fault
replicas, multi-rack sweep grids — across processes on top of
:mod:`repro.parallel.executor`, and merges per-shard metrics
snapshots, batch outcomes, and trace spans bit-identically to the
serial path.  See :mod:`repro.shard.runner` for the drivers and
:mod:`repro.shard.merge` for the merge contract.
"""

from repro.shard.merge import merge_chrome_traces, merge_registry_snapshots
from repro.shard.runner import (
    SCENARIO_SHARD_SIZE,
    FaultMonteCarloReport,
    RackSweepReport,
    RackSweepRow,
    evaluate_scenarios_sharded,
    fault_mc_sharded,
    rack_sweep_sharded,
    shard_slices,
)

__all__ = [
    "SCENARIO_SHARD_SIZE",
    "FaultMonteCarloReport",
    "RackSweepReport",
    "RackSweepRow",
    "evaluate_scenarios_sharded",
    "fault_mc_sharded",
    "merge_chrome_traces",
    "merge_registry_snapshots",
    "rack_sweep_sharded",
    "shard_slices",
]
