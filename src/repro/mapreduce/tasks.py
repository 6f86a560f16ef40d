"""Task-level job execution over HDFS with locality-aware scheduling.

Bridges the mini-HDFS and the functional runtime the way Hadoop's
JobTracker bridges the NameNode and TaskTrackers: one map task per
input split, tasks preferentially assigned to workers holding a local
replica (with a bounded *delay-scheduling* wait before accepting a
remote assignment), spill/merge shuffle via
:mod:`repro.mapreduce.shuffle`, and per-job counters (data-local vs
remote tasks, spills, shuffled bytes) matching the counters a real job
report shows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.hdfs.blocks import Block
from repro.hdfs.filesystem import MiniHdfs
from repro.mapreduce.shuffle import MapOutputBuffer, ShuffleService
from repro.workloads.base import Application, KeyValue


@dataclass(frozen=True)
class MapTaskAttempt:
    """One execution attempt of a map task.

    A failed attempt (``succeeded=False``) commits no output — Hadoop
    discards a failed attempt's spills — and the task re-executes as a
    fresh attempt on the next worker in round-robin order.
    """

    task_id: int
    block_id: str
    worker: int
    data_local: bool
    n_records_in: int
    n_records_out: int
    n_spills: int
    succeeded: bool = True


@dataclass(frozen=True)
class TaskJobCounters:
    """Job-report counters (the familiar Hadoop summary block)."""

    n_map_tasks: int
    n_reduce_tasks: int
    data_local_maps: int
    remote_maps: int
    map_input_records: int
    map_output_records: int
    reduce_output_records: int
    total_spills: int
    shuffled_segments: int
    shuffled_bytes_estimate: int
    failed_map_attempts: int = 0

    @property
    def locality_fraction(self) -> float:
        if self.n_map_tasks == 0:
            return 1.0
        return self.data_local_maps / self.n_map_tasks

    def inconsistencies(
        self, attempts: "Sequence[MapTaskAttempt]"
    ) -> list[str]:
        """Cross-validate these counters against the raw attempt log.

        The conservation laws a correct runner cannot break: every map
        task is either data-local or remote, successful attempts match
        the task count, failed attempts match the failure counter, and
        record/spill totals equal the sums over successful attempts
        (failed attempts commit nothing).  Returns human-readable
        violation messages — empty means the summary is faithful.
        """
        failures: list[str] = []
        succeeded = [a for a in attempts if a.succeeded]
        failed = [a for a in attempts if not a.succeeded]
        checks = (
            ("n_map_tasks", self.n_map_tasks, len(succeeded)),
            ("failed_map_attempts", self.failed_map_attempts, len(failed)),
            (
                "data_local_maps + remote_maps",
                self.data_local_maps + self.remote_maps,
                self.n_map_tasks,
            ),
            (
                "data_local_maps",
                self.data_local_maps,
                sum(1 for a in succeeded if a.data_local),
            ),
            (
                "map_input_records",
                self.map_input_records,
                sum(a.n_records_in for a in succeeded),
            ),
            (
                "map_output_records",
                self.map_output_records,
                sum(a.n_records_out for a in succeeded),
            ),
            (
                "total_spills",
                self.total_spills,
                sum(a.n_spills for a in succeeded),
            ),
        )
        for name, reported, derived in checks:
            if reported != derived:
                failures.append(
                    f"{name}: counter says {reported}, attempt log says {derived}"
                )
        return failures


RecordReader = Callable[[Block, int], Iterator[KeyValue]]


class BlockWorkQueue:
    """Pending map-task blocks indexed by replica node.

    Scanning the whole pending list per assignment for the first block
    with a local replica costs O(blocks) per task, O(blocks²) per job,
    which dominates large jobs on big clusters.  This queue keeps the
    global FIFO *and* one per-node FIFO of candidate blocks (built from
    the namenode's placement in O(blocks × replication)), so a local
    pick is O(1) amortised: the head of a node's candidate queue *is*
    the first pending block with a replica there.  Taken blocks are
    tombstoned and skipped lazily, so every queue preserves exact
    pending order and the assignment sequence matches the scan's byte
    for byte.

    The per-node index snapshots placement at construction; the
    scheduler re-verifies locality against the live namenode before
    honouring a candidate (a dropped replica is skipped), but blocks
    that *gain* replicas mid-job are not re-indexed — within a job run
    placement is fixed, which is the runner's actual usage.
    """

    def __init__(self, blocks: Sequence[Block], namenode) -> None:
        self.namenode = namenode
        self._fifo: deque[Block] = deque(blocks)
        self._taken: set[str] = set()
        self._by_node: dict[int, deque[Block]] = {}
        for block in blocks:
            for node_id in namenode.locate(block.block_id):
                self._by_node.setdefault(node_id, deque()).append(block)
        self._n = len(self._fifo)

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self) -> Iterator[Block]:
        taken = self._taken
        return (b for b in self._fifo if b.block_id not in taken)

    def _take(self, block: Block) -> Block:
        self._taken.add(block.block_id)
        self._n -= 1
        return block

    def pop_local(self, node_id: int) -> Block | None:
        """First pending block with a live replica on ``node_id``."""
        queue = self._by_node.get(node_id)
        if not queue:
            return None
        namenode = self.namenode
        while queue:
            block = queue[0]
            if block.block_id in self._taken:
                queue.popleft()
                continue
            if not namenode.is_local(block.block_id, node_id):
                # Replica dropped since indexing (node failure).
                queue.popleft()
                continue
            queue.popleft()
            return self._take(block)
        return None

    def pop_head(self) -> Block | None:
        """Oldest pending block (the remote-assignment fallback)."""
        fifo = self._fifo
        while fifo:
            block = fifo[0]
            if block.block_id in self._taken:
                fifo.popleft()
                continue
            fifo.popleft()
            return self._take(block)
        return None


def synthetic_record_reader(app: Application, records_per_block: int = 200) -> RecordReader:
    """A record reader generating each block's records from its identity.

    Real HDFS blocks hold bytes; our blocks are metadata, so the reader
    deterministically derives the block's records from the application's
    generator seeded by the block index — the same block always yields
    the same records, which is what correctness tests rely on.
    """
    if records_per_block < 1:
        raise ValueError("records_per_block must be >= 1")

    def read(block: Block, _worker: int) -> Iterator[KeyValue]:
        return app.generate_records(records_per_block, seed=block.index)

    return read


@dataclass
class LocalityScheduler:
    """Delay scheduling: prefer local assignments, accept remote late.

    Workers request tasks round-robin.  A worker receives a data-local
    task when one exists; otherwise it waits (skips its turn) up to
    ``max_skips`` times before taking a remote task — the standard
    delay-scheduling trade between locality and utilisation.
    """

    hdfs: MiniHdfs
    n_workers: int
    max_skips: int = 2
    _skips: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.max_skips < 0:
            raise ValueError("max_skips must be >= 0")

    def assign(
        self, pending: BlockWorkQueue, worker: int
    ) -> tuple[Block, bool] | None:
        """Pick a block for ``worker``; returns (block, data_local).

        Returns ``None`` when the worker should wait this round (delay
        scheduling) even though remote work exists.  The first pending
        block with a local replica is the head of the node's candidate
        queue — O(1) amortised, the block a scan of the pending order
        would pick (``tests/test_mr_tasks.py`` keeps that scan as the
        reference model).
        """
        if not pending:
            return None
        block = pending.pop_local(worker % self.hdfs.n_nodes)
        if block is not None:
            self._skips[worker] = 0
            return block, True
        skips = self._skips.get(worker, 0)
        if skips < self.max_skips:
            self._skips[worker] = skips + 1
            return None
        self._skips[worker] = 0
        head = pending.pop_head()
        assert head is not None  # pending was non-empty
        return head, False


class TaskJobRunner:
    """Executes one application over an HDFS file, task by task."""

    def __init__(
        self,
        hdfs: MiniHdfs,
        *,
        n_workers: int = 8,
        n_reducers: int = 2,
        buffer_records: int = 500,
        use_combiner: bool = True,
        max_skips: int = 2,
        max_attempts: int = 4,
    ) -> None:
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.hdfs = hdfs
        self.n_workers = n_workers
        self.n_reducers = n_reducers
        self.buffer_records = buffer_records
        self.use_combiner = use_combiner
        self.max_attempts = max_attempts
        self.scheduler = LocalityScheduler(hdfs, n_workers, max_skips=max_skips)

    def _partition(self, key: object) -> int:
        return hash(repr(key)) % self.n_reducers

    def _run_map_task(
        self,
        app: Application,
        block: Block,
        worker: int,
        data_local: bool,
        task_id: int,
        reader: RecordReader,
        shuffle: ShuffleService,
    ) -> MapTaskAttempt:
        from collections import defaultdict

        buffer = MapOutputBuffer(self.n_reducers, buffer_records=self.buffer_records)
        n_in = n_out = 0
        raw: list[KeyValue] = []
        for key, value in reader(block, worker):
            n_in += 1
            raw.extend(app.mapper(key, value))
        if self.use_combiner and app.has_combiner:
            grouped: dict[object, list[object]] = defaultdict(list)
            for k, v in raw:
                grouped[k].append(v)
            combined: list[KeyValue] = []
            for k in grouped:
                combined.extend(app.combiner(k, grouped[k]))
            raw = combined
        for k, v in raw:
            n_out += 1
            buffer.emit(self._partition(k), k, v)
        segments = buffer.close()
        shuffle.register(segments)
        return MapTaskAttempt(
            task_id=task_id,
            block_id=block.block_id,
            worker=worker,
            data_local=data_local,
            n_records_in=n_in,
            n_records_out=n_out,
            n_spills=buffer.n_spills,
        )

    def run(
        self,
        app: Application,
        file_name: str,
        *,
        reader: RecordReader | None = None,
        fault_hook: Callable[[int, int], bool] | None = None,
    ) -> tuple[list[KeyValue], TaskJobCounters, list[MapTaskAttempt]]:
        """Run the job; returns (output records, counters, attempts).

        ``fault_hook(task_id, attempt_no)`` — when given — is consulted
        before each attempt commits; returning ``True`` kills it.  The
        failed attempt contributes no output and the task re-executes
        on the next worker (round-robin, Hadoop's re-schedule-elsewhere
        policy) as a fresh attempt, up to ``max_attempts`` per task;
        exhausting them fails the whole job, as Hadoop does.
        """
        if reader is None:
            reader = synthetic_record_reader(app)
        pending = BlockWorkQueue(
            self.hdfs.splits_for(file_name), self.hdfs.namenode
        )
        shuffle = ShuffleService(self.n_reducers)
        attempts: list[MapTaskAttempt] = []
        task_id = 0
        worker = 0
        idle_rounds = 0
        while pending:
            assignment = self.scheduler.assign(pending, worker)
            if assignment is not None:
                block, data_local = assignment
                attempt_worker = worker
                for attempt_no in range(self.max_attempts):
                    if fault_hook is not None and fault_hook(task_id, attempt_no):
                        attempts.append(
                            MapTaskAttempt(
                                task_id=task_id,
                                block_id=block.block_id,
                                worker=attempt_worker,
                                data_local=data_local,
                                n_records_in=0,
                                n_records_out=0,
                                n_spills=0,
                                succeeded=False,
                            )
                        )
                        attempt_worker = (attempt_worker + 1) % self.n_workers
                        data_local = self.hdfs.namenode.is_local(
                            block.block_id, attempt_worker % self.hdfs.n_nodes
                        )
                        continue
                    attempts.append(
                        self._run_map_task(
                            app, block, attempt_worker, data_local,
                            task_id, reader, shuffle,
                        )
                    )
                    break
                else:
                    raise RuntimeError(
                        f"task {task_id} failed {self.max_attempts} attempts"
                    )
                task_id += 1
                idle_rounds = 0
            else:
                idle_rounds += 1
                if idle_rounds > self.n_workers * (self.scheduler.max_skips + 1):
                    raise RuntimeError("scheduler starved with pending tasks")
            worker = (worker + 1) % self.n_workers

        output: list[KeyValue] = []
        reduce_out = 0
        for partition in range(self.n_reducers):
            for key, values in shuffle.fetch(partition):
                for kv in app.reducer(key, values):
                    output.append(kv)
                    reduce_out += 1
        ok = [a for a in attempts if a.succeeded]
        counters = TaskJobCounters(
            n_map_tasks=len(ok),
            n_reduce_tasks=self.n_reducers,
            data_local_maps=sum(1 for a in ok if a.data_local),
            remote_maps=sum(1 for a in ok if not a.data_local),
            map_input_records=sum(a.n_records_in for a in ok),
            map_output_records=sum(a.n_records_out for a in ok),
            reduce_output_records=reduce_out,
            total_spills=sum(a.n_spills for a in ok),
            shuffled_segments=shuffle.total_segments,
            shuffled_bytes_estimate=shuffle.total_bytes_estimate,
            failed_map_attempts=len(attempts) - len(ok),
        )
        return output, counters, attempts
