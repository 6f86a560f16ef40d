"""Task-level job runner tests: locality scheduling + correctness."""

import pytest

from repro.hdfs.filesystem import MiniHdfs
from repro.mapreduce.functional import MapReduceRuntime
from repro.mapreduce.tasks import (
    BlockWorkQueue,
    LocalityScheduler,
    TaskJobRunner,
    synthetic_record_reader,
)
from repro.utils.units import GB, MB
from repro.workloads.registry import get_app


@pytest.fixture
def hdfs():
    fs = MiniHdfs(n_nodes=4)
    fs.write_file("input", 1 * GB, 128 * MB)  # 8 blocks
    return fs


def test_output_matches_functional_runtime(hdfs):
    """The task-level path computes the same result as the in-memory
    runtime over the same records."""
    app = get_app("wc")
    runner = TaskJobRunner(hdfs, n_workers=4, n_reducers=2)
    output, counters, _ = runner.run(app, "input")

    # Rebuild the identical record multiset through the same reader.
    reader = synthetic_record_reader(app)
    records = []
    for block in hdfs.splits_for("input"):
        records.extend(reader(block, 0))
    expected = MapReduceRuntime(n_reducers=2, split_records=10**9).run(app, records)
    assert dict(output) == expected.as_dict()
    assert counters.map_input_records == len(records)


def test_one_map_task_per_block(hdfs):
    runner = TaskJobRunner(hdfs, n_workers=4)
    _out, counters, attempts = runner.run(get_app("wc"), "input")
    assert counters.n_map_tasks == 8
    assert len({a.block_id for a in attempts}) == 8


def test_high_locality_with_matching_workers(hdfs):
    """With workers on every node and replication 3, nearly all tasks
    run data-local."""
    runner = TaskJobRunner(hdfs, n_workers=4)
    _out, counters, _ = runner.run(get_app("wc"), "input")
    assert counters.locality_fraction >= 0.9


def test_remote_tasks_eventually_accepted():
    """A single worker on a node without replicas must still finish
    (delay scheduling gives up after max_skips)."""
    fs = MiniHdfs(n_nodes=8, replication=1)
    fs.write_file("input", 512 * MB, 128 * MB)
    runner = TaskJobRunner(fs, n_workers=1, max_skips=1)
    _out, counters, _ = runner.run(get_app("wc"), "input")
    assert counters.n_map_tasks == 4
    assert counters.remote_maps >= 1


def test_combiner_reduces_shuffle_volume(hdfs):
    app = get_app("wc")
    with_comb = TaskJobRunner(hdfs, use_combiner=True)
    without = TaskJobRunner(hdfs, use_combiner=False)
    out_a, counters_a, _ = with_comb.run(app, "input")
    out_b, counters_b, _ = without.run(app, "input")
    assert dict(out_a) == dict(out_b)
    assert counters_a.map_output_records < counters_b.map_output_records
    assert counters_a.shuffled_bytes_estimate < counters_b.shuffled_bytes_estimate


def test_spills_counted(hdfs):
    runner = TaskJobRunner(hdfs, buffer_records=50, use_combiner=False)
    _out, counters, attempts = runner.run(get_app("wc"), "input")
    assert counters.total_spills >= counters.n_map_tasks  # multiple spills/task
    assert all(a.n_spills >= 1 for a in attempts)


def test_scheduler_prefers_local():
    fs = MiniHdfs(n_nodes=2, replication=1)
    fs.write_file("f", 256 * MB, 128 * MB)
    sched = LocalityScheduler(fs, n_workers=2)
    pending = BlockWorkQueue(fs.splits_for("f"), fs.namenode)
    block, local = sched.assign(pending, worker=0)  # type: ignore[misc]
    assert local


def test_scheduler_empty_pending():
    fs = MiniHdfs(n_nodes=1)
    sched = LocalityScheduler(fs, n_workers=1)
    assert sched.assign(BlockWorkQueue([], fs.namenode), worker=0) is None


def test_validation(hdfs):
    with pytest.raises(ValueError):
        TaskJobRunner(hdfs, n_reducers=0)
    with pytest.raises(ValueError):
        LocalityScheduler(hdfs, n_workers=0)
    with pytest.raises(ValueError):
        synthetic_record_reader(get_app("wc"), records_per_block=0)


class _ScanScheduler:
    """Reference model of :class:`LocalityScheduler`: delay scheduling
    by scanning the pending list in order for the first block with a
    local replica."""

    def __init__(self, hdfs, max_skips):
        self.hdfs = hdfs
        self.max_skips = max_skips
        self._skips = {}

    def assign(self, pending, worker):
        if not pending:
            return None
        node = worker % self.hdfs.n_nodes
        for i, block in enumerate(pending):
            if self.hdfs.namenode.is_local(block.block_id, node):
                self._skips[worker] = 0
                del pending[i]
                return block, True
        skips = self._skips.get(worker, 0)
        if skips < self.max_skips:
            self._skips[worker] = skips + 1
            return None
        self._skips[worker] = 0
        return pending.pop(0), False


def _assignment_log(sched, pending, n_workers):
    log = []
    worker = 0
    while pending:
        got = sched.assign(pending, worker=worker)
        if got is None:
            log.append((worker, None, None))
        else:
            block, local = got
            log.append((worker, block.block_id, local))
        worker = (worker + 1) % n_workers
    return log


def test_work_queue_assignment_matches_reference_scan():
    """The indexed path picks what the pending-order scan picks.

    Three workers on six nodes leave three nodes' replicas without a
    local worker, so the remote fallback and the delay-scheduling waits
    both run; every (block, locality) decision and every wait must match.
    """
    for replication in (1, 3):
        fs = MiniHdfs(n_nodes=6, replication=replication)
        fs.write_file("input", 2 * GB, 128 * MB)  # 16 blocks
        blocks = fs.splits_for("input")
        for max_skips in (0, 1, 2):
            want = _assignment_log(
                _ScanScheduler(fs, max_skips), list(blocks), n_workers=3
            )
            got = _assignment_log(
                LocalityScheduler(fs, n_workers=3, max_skips=max_skips),
                BlockWorkQueue(blocks, fs.namenode),
                n_workers=3,
            )
            assert got == want, (replication, max_skips)
            assert any(local is False for _w, _b, local in want)
            assert (max_skips == 0) == all(b is not None for _w, b, _l in want)


def test_counters_are_consistent_with_attempt_log(hdfs):
    runner = TaskJobRunner(hdfs, n_workers=4)
    _out, counters, attempts = runner.run(get_app("wc"), "input")
    assert counters.inconsistencies(attempts) == []


def test_counters_consistent_under_fault_hook(hdfs):
    runner = TaskJobRunner(hdfs, n_workers=4)
    _out, counters, attempts = runner.run(
        get_app("wc"), "input",
        fault_hook=lambda task_id, attempt_no: task_id == 2 and attempt_no == 0,
    )
    assert counters.failed_map_attempts == 1
    assert counters.inconsistencies(attempts) == []


def test_counters_inconsistency_is_reported(hdfs):
    from dataclasses import replace

    runner = TaskJobRunner(hdfs, n_workers=4)
    _out, counters, attempts = runner.run(get_app("wc"), "input")
    doctored = replace(counters, map_input_records=counters.map_input_records + 1)
    [message] = doctored.inconsistencies(attempts)
    assert message.startswith("map_input_records: counter says")
