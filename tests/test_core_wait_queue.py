"""Wait-queue tests: FIFO order, reservation, leap-forward."""

import pytest

from repro.core.wait_queue import QueuedApp, WaitQueue
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import get_app


def qa(code="wc", cls=AppClass.COMPUTE, t=0.0):
    return QueuedApp(
        instance=AppInstance(get_app(code), 1 * GB), app_class=cls, arrival_time=t
    )


def test_fifo_order():
    q = WaitQueue()
    first, second = qa("wc"), qa("st", AppClass.IO)
    q.push(first)
    q.push(second)
    assert q.head is first
    assert q.pop_head() is first
    assert q.pop_head() is second


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        WaitQueue().pop_head()


def test_select_without_leap_takes_head():
    q = WaitQueue()
    head = qa("fp", AppClass.MEMORY)
    better = qa("st", AppClass.IO)
    q.push(head)
    q.push(better)
    got = q.select(lambda item: 1.0 if item.app_class is AppClass.IO else 0.0,
                   allow_leap=False)
    assert got is head  # reservation: FIFO wins without leap permission


def test_select_with_leap_prefers_score():
    q = WaitQueue()
    head = qa("fp", AppClass.MEMORY)
    better = qa("st", AppClass.IO)
    q.push(head)
    q.push(better)
    got = q.select(lambda item: 1.0 if item.app_class is AppClass.IO else 0.0,
                   allow_leap=True)
    assert got is better
    assert q.head is head  # head still queued, reservation intact


def test_select_tie_goes_fifo():
    q = WaitQueue()
    a, b = qa("wc"), qa("wc")
    q.push(a)
    q.push(b)
    assert q.select(lambda _: 1.0, allow_leap=True) is a


def test_select_empty_returns_none():
    assert WaitQueue().select(lambda _: 0.0, allow_leap=True) is None


def test_iteration_and_len():
    q = WaitQueue()
    items = [qa(), qa(), qa()]
    for item in items:
        q.push(item)
    assert list(q) == items
    assert len(q) == 3


def test_deque_backend_preserves_fifo_under_mixed_ops():
    # Interleave pushes, head pops, and leap removals; the surviving
    # order must be exactly the FIFO order minus the removed items.
    q = WaitQueue()
    items = [qa("wc", AppClass.COMPUTE, t=float(i)) for i in range(8)]
    for item in items[:5]:
        q.push(item)
    assert q.pop_head() is items[0]
    taken = q.select(lambda it: it.arrival_time, allow_leap=True)
    assert taken is items[4]  # highest arrival_time wins the leap
    for item in items[5:]:
        q.push(item)
    assert list(q) == [items[1], items[2], items[3], items[5], items[6], items[7]]
