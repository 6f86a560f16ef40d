"""Sharded execution must be bit-identical to the serial path.

``repro.shard`` partitions scenario batches, Monte-Carlo fault
replicas, and multi-rack sweep grids into fixed-size shards, fans them
across processes, and merges per-shard artifacts in shard order.  The
contract is *bit identity*: for any ``REPRO_WORKERS`` the merged
result must equal the serial computation byte for byte.  These tests
pin that contract for worker counts 1, 2 and 4, plus the merge
primitives in isolation.
"""

from __future__ import annotations

import pytest

from repro.batch.engine import evaluate_scenarios
from repro.conformance.scenarios import oracle_matrix
from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.shard import (
    evaluate_scenarios_sharded,
    fault_mc_sharded,
    merge_chrome_traces,
    merge_registry_snapshots,
    rack_sweep_sharded,
    shard_slices,
)
from repro.telemetry.counters import BatchTelemetry

WORKER_COUNTS = (1, 2, 4)


# ---------------------------------------------------------- slicing
def test_shard_slices_cover_exactly():
    assert shard_slices(0, 512) == []
    assert shard_slices(5, 2) == [(0, 2), (2, 4), (4, 5)]
    bounds = shard_slices(1300, 512)
    assert bounds[0] == (0, 512)
    assert bounds[-1] == (1024, 1300)
    covered = [i for lo, hi in bounds for i in range(lo, hi)]
    assert covered == list(range(1300))
    with pytest.raises(ValueError):
        shard_slices(10, 0)


# ------------------------------------------------- scenario batches
@pytest.fixture(scope="module")
def matrix():
    return oracle_matrix()


@pytest.fixture(scope="module")
def serial_outcomes(matrix):
    return evaluate_scenarios(matrix, backend="batch")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_scenario_batches_bit_identical(matrix, serial_outcomes, workers, monkeypatch):
    # Drive the worker count the way CI does: through REPRO_WORKERS.
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    telemetry = BatchTelemetry()
    # shard_size=16 forces multiple shards even on this small matrix.
    sharded = evaluate_scenarios_sharded(
        matrix, backend="batch", telemetry=telemetry, shard_size=16
    )
    assert sharded == serial_outcomes  # NamedTuple equality: every byte
    assert telemetry.kernel_calls > 0


def test_scenario_shard_size_does_not_change_outcomes(matrix, serial_outcomes):
    for shard_size in (7, 50, 10_000):
        sharded = evaluate_scenarios_sharded(
            matrix, backend="batch", shard_size=shard_size, workers=1
        )
        assert sharded == serial_outcomes


# ------------------------------------------------ fault Monte-Carlo
@pytest.fixture(scope="module")
def mc_kwargs():
    return dict(rates=(0.0, 5.0), n_jobs=24, mean_interarrival_s=4.0, n_nodes=3)


@pytest.fixture(scope="module")
def serial_mc(mc_kwargs):
    return fault_mc_sharded((7, 11), workers=1, **mc_kwargs)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fault_replicas_bit_identical(serial_mc, mc_kwargs, workers):
    report = fault_mc_sharded((7, 11), workers=workers, **mc_kwargs)
    assert report == serial_mc  # frozen dataclasses: full deep equality


def test_fault_replica_equals_direct_call(serial_mc, mc_kwargs):
    direct = run_fault_tolerance(fault_seed=11, **mc_kwargs)
    assert serial_mc.replicas[1] == direct
    stats = serial_mc.degradation_stats()
    assert {row["policy"] for row in stats}
    for row in stats:
        assert row["n_replicas"] == 2
        assert row["edp_degradation_min"] <= row["edp_degradation_max"]


# --------------------------------------------------- rack sweeps
@pytest.fixture(scope="module")
def serial_sweep():
    return rack_sweep_sharded((2, 4, 8), n_jobs=40, workers=1)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_rack_sweep_bit_identical(serial_sweep, workers):
    report = rack_sweep_sharded((2, 4, 8), n_jobs=40, workers=workers)
    assert report == serial_sweep


def test_rack_sweep_merges_metrics_and_finds_knee(serial_sweep):
    assert [r.n_nodes for r in serial_sweep.rows] == [2, 4, 8]
    assert serial_sweep.rows[0].makespan > serial_sweep.rows[-1].makespan
    assert serial_sweep.knee() in (2, 4, 8)
    # Merged snapshot sums the per-cell engine counters in shard order.
    merged = serial_sweep.merged_metrics["engine"]
    total = sum(r.metrics["engine"]["events"] for r in serial_sweep.rows)
    assert merged["events"] == total


# ------------------------------------------------ merge primitives
def test_merge_registry_snapshots_sums_and_sorts():
    merged = merge_registry_snapshots(
        [
            {"engine": {"b": 1.5, "a": 2}},
            {"engine": {"a": 3}, "cache": {"hits": 1}},
        ]
    )
    assert merged == {"cache": {"hits": 1}, "engine": {"a": 5, "b": 1.5}}
    assert list(merged) == ["cache", "engine"]
    assert list(merged["engine"]) == ["a", "b"]
    assert merge_registry_snapshots([]) == {}


def test_merge_chrome_traces_separates_shard_pids():
    a = {
        "traceEvents": [{"pid": 0, "name": "x"}, {"pid": 2, "name": "y"}],
        "displayTimeUnit": "ms",
    }
    b = {"traceEvents": [{"pid": 0, "name": "z"}]}
    merged = merge_chrome_traces([a, b])
    assert merged["displayTimeUnit"] == "ms"
    pids = [ev["pid"] for ev in merged["traceEvents"]]
    # Stride = max pid + 1 = 3: shard 0 keeps 0/2, shard 1 moves to 3.
    assert pids == [0, 2, 3]
    # Inputs are never mutated.
    assert a["traceEvents"][0]["pid"] == 0
    assert b["traceEvents"][0]["pid"] == 0
