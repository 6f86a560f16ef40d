"""Property suite for the placement indexes on mixed-capacity rosters.

The scale-out PR proved :class:`FreeCoreIndex` and
:class:`PendingQueue` equivalent to the naive structures they replaced
on homogeneous clusters.  This suite drives both structures through
randomised crash → restore → crash sequences on rosters mixing atom
(8-core) and xeon (16-core) capacities and checks every observable
against the legacy linear-scan model after every single operation.  Hypothesis generates the op sequences when available, a
seeded ``parametrize`` fallback otherwise (matching
``test_invariants_property.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.mapreduce.indexes import FreeCoreIndex, PendingQueue

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.hetero

#: Per-class core capacities of the studied rosters.
_CAPACITY = {0: 8, 1: 16}


def seeded_cases(n: int):
    """Hypothesis integers when available, seeded parametrize otherwise."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(
                case_seed=st.integers(min_value=0, max_value=2**31 - 1)
            )(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


# --------------------------------------------------- legacy scan models
def legacy_first_at_least(values, k):
    """The O(n) scan ``fifo_first_fit`` paid before the segment tree."""
    for i, v in enumerate(values):
        if v >= k:
            return i
    return None


def assert_index_matches_scan(index, values):
    """Differentially check every query the index answers."""
    for i, v in enumerate(values):
        assert index.get(i) == v
    for k in range(0, max(_CAPACITY.values()) + 2):
        if k <= 0:
            # The fast path returns slot 0 unconditionally.
            assert index.first_at_least(k) == 0
        else:
            assert index.first_at_least(k) == legacy_first_at_least(values, k)


# ------------------------------------------------- FreeCoreIndex suite
@seeded_cases(40)
def test_free_core_index_crash_restore_differential(case_seed):
    """Random capacity churn on a mixed roster, checked step by step.

    The op mix is the engine's: allocations and releases (partial
    capacity changes), crashes (capacity → 0) and restores (capacity →
    the class's full core count), interleaved so nodes crash and
    recover repeatedly within one sequence.
    """
    rng = random.Random(case_seed)
    n = rng.randint(1, 12)
    tags = [rng.randint(0, 1) for _ in range(n)]
    values = [_CAPACITY[t] for t in tags]
    index = FreeCoreIndex(values)
    assert_index_matches_scan(index, values)

    crashed = set()
    for _ in range(rng.randint(5, 40)):
        i = rng.randrange(n)
        op = rng.choice(("alloc", "crash", "restore"))
        if op == "crash":
            values[i] = 0
            crashed.add(i)
        elif op == "restore":
            values[i] = _CAPACITY[tags[i]]
            crashed.discard(i)
        else:
            values[i] = rng.randint(0, _CAPACITY[tags[i]])
        index.set(i, values[i])
        assert_index_matches_scan(index, values)


def test_free_core_index_double_crash_sequence():
    # One deterministic crash → restore → crash walk on a 2-class
    # roster, pinning the global first fit through both transitions.
    tags = [0, 1, 0, 1]
    values = [_CAPACITY[t] for t in tags]
    index = FreeCoreIndex(values)
    assert index.first_at_least(16) == 1

    index.set(1, 0)  # crash the first xeon
    assert index.first_at_least(16) == 3
    index.set(3, 0)  # crash the second xeon too
    assert index.first_at_least(16) is None
    assert index.first_at_least(8) == 0

    index.set(1, _CAPACITY[1])  # restore
    assert index.first_at_least(16) == 1
    index.set(1, 0)  # and crash again
    assert index.first_at_least(16) is None


def test_free_core_index_validation():
    with pytest.raises(ValueError, match="at least one slot"):
        FreeCoreIndex([])
    index = FreeCoreIndex([8, 16])
    with pytest.raises(IndexError):
        index.get(2)
    with pytest.raises(IndexError):
        index.set(-1, 3)


# --------------------------------------------------- PendingQueue suite
@dataclass(frozen=True)
class _Job:
    """Value-equal stand-in for a JobSpec (ids may deliberately clash)."""

    job_id: int
    tag: int = field(default=0, compare=False)


class _ListModel:
    """The legacy structure: a plain list with list.remove semantics."""

    def __init__(self):
        self.items = []

    def append(self, item):
        self.items.append(item)

    def remove(self, item):
        self.items.remove(item)


def _assert_queue_matches(queue: PendingQueue, model: _ListModel):
    assert len(queue) == len(model.items)
    assert bool(queue) == bool(model.items)
    assert list(queue) == model.items
    if model.items:
        assert queue[0] is model.items[0]
    for probe in model.items[:3]:
        assert probe in queue
    assert _Job(-1) not in queue


@seeded_cases(40)
def test_pending_queue_differential_with_requeue(case_seed):
    """Random append/remove/re-queue churn against the list model.

    Re-queueing an object the injector previously removed (the
    crash-recovery path: place → crash → re-queue → place → crash) is
    drawn as its own op so tombstone resolution is hit constantly.
    """
    rng = random.Random(case_seed)
    queue, model = PendingQueue(), _ListModel()
    removed: list[_Job] = []
    next_id = 0
    for _ in range(rng.randint(10, 80)):
        op = rng.choice(("append", "append", "remove_head", "remove_any",
                         "requeue"))
        if op == "append":
            job = _Job(next_id)
            next_id += 1
            queue.append(job)
            model.append(job)
        elif op == "remove_head" and model.items:
            job = model.items[0]
            queue.remove(job)
            model.remove(job)
            removed.append(job)
        elif op == "remove_any" and model.items:
            job = rng.choice(model.items)
            queue.remove(job)
            model.remove(job)
            removed.append(job)
        elif op == "requeue" and removed:
            # The same object comes back — crash recovery re-queues the
            # spec it already placed once.
            job = removed.pop(rng.randrange(len(removed)))
            queue.append(job)
            model.append(job)
        _assert_queue_matches(queue, model)


def test_pending_queue_crash_restore_crash_same_object():
    queue = PendingQueue()
    job = _Job(1)
    for _round in range(3):  # place → crash → re-queue, thrice
        queue.append(job)
        assert job in queue and len(queue) == 1
        queue.remove(job)
        assert job not in queue and len(queue) == 0
    queue.append(job)
    assert list(queue) == [job]


def test_pending_queue_equal_but_distinct_uses_first_equal():
    # Two distinct objects that compare equal: removal by a *third*
    # equal object must drop the first-queued one, as list.remove does.
    first, second, probe = _Job(7, tag=1), _Job(7, tag=2), _Job(7, tag=3)
    queue, model = PendingQueue(), _ListModel()
    for item in (first, second):
        queue.append(item)
        model.append(item)
    queue.remove(probe)
    model.remove(probe)
    assert list(queue) == model.items == [second]
    assert queue[0] is second


def test_pending_queue_rejects_double_append_and_ghost_remove():
    queue = PendingQueue()
    job = _Job(1)
    queue.append(job)
    with pytest.raises(ValueError, match="already pending"):
        queue.append(job)
    with pytest.raises(ValueError, match="not pending"):
        queue.remove(_Job(99))
    with pytest.raises(IndexError):
        PendingQueue()[0]


def test_pending_queue_compaction_under_deep_churn():
    # Enough removals to trip both the head compaction threshold and
    # the tombstone-count compaction, preserving FIFO order throughout.
    queue = PendingQueue()
    jobs = [_Job(i) for i in range(1500)]
    for job in jobs:
        queue.append(job)
    for job in jobs[:1200]:
        queue.remove(job)
    assert list(queue) == jobs[1200:]
    assert queue[0] is jobs[1200]
    queue.clear()
    assert len(queue) == 0 and not queue
