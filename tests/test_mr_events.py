"""Event-queue tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.events import EventQueue


def test_pop_in_time_order():
    q = EventQueue()
    q.schedule(3.0, "c")
    q.schedule(1.0, "a")
    q.schedule(2.0, "b")
    assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    q.schedule(1.0, "first")
    q.schedule(1.0, "second")
    assert q.pop()[1] == "first"
    assert q.pop()[1] == "second"


def test_clock_advances():
    q = EventQueue()
    q.schedule(5.0, "x")
    assert q.now == 0.0
    q.pop()
    assert q.now == 5.0


def test_cannot_schedule_in_the_past():
    q = EventQueue()
    q.schedule(5.0, "x")
    q.pop()
    with pytest.raises(ValueError, match="before current time"):
        q.schedule(4.0, "y")


def test_len_counts_live_events():
    q = EventQueue()
    assert len(q) == 0
    q.schedule(1.0, "a")
    q.schedule(2.0, "b")
    assert len(q) == 2
    q.pop()
    assert len(q) == 1
    q.pop()
    assert len(q) == 0
    assert q.pop() is None


def test_peek_time():
    q = EventQueue()
    assert q.peek_time() is None
    q.schedule(2.0, "b")
    q.schedule(1.0, "a")
    assert q.peek_time() == 1.0
    assert q.now == 0.0  # peeking does not advance the clock
    q.pop()
    assert q.peek_time() == 2.0
    q.pop()
    assert q.peek_time() is None


def test_run_until():
    q = EventQueue()
    seen = []
    for t in (1.0, 2.0, 3.0):
        q.schedule(t, t)
    q.run(lambda t, p: seen.append(p), until=2.5)
    assert seen == [1.0, 2.0]
    assert q.peek_time() == 3.0


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
def test_pop_order_is_sorted_for_any_schedule(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, t)
    popped = []
    while True:
        item = q.pop()
        if item is None:
            break
        popped.append(item[0])
    assert popped == sorted(times)
