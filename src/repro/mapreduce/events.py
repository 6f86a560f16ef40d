"""Discrete-event core: a stable-order event queue.

A minimal priority queue keyed on (time, sequence) so simultaneous
events fire in insertion order — the property that keeps the simulator
deterministic regardless of callback content.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class EventQueue:
    """Time-ordered event queue.

    Events are arbitrary payloads; :meth:`pop` returns ``(time,
    payload)`` in non-decreasing time order.  Heap entries are plain
    ``(time, seq, payload)`` tuples, which compare in C; the sequence
    number is unique, so ties on time break by insertion order and the
    payload is never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the last popped event (simulation clock)."""
        return self._now

    def schedule(self, time: float, payload: Any) -> None:
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        heapq.heappush(self._heap, (float(time), next(self._counter), payload))

    def pop(self) -> Optional[tuple[float, Any]]:
        """Next event, or ``None`` when the queue is exhausted."""
        if not self._heap:
            return None
        time, _seq, payload = heapq.heappop(self._heap)
        self._now = time
        return time, payload

    def peek_time(self) -> Optional[float]:
        """Time of the next event without popping it."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, handler: Callable[[float, Any], None], *, until: float = float("inf")) -> None:
        """Drain the queue through ``handler`` until empty or ``until``."""
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > until:
                return
            time, payload = self.pop()  # type: ignore[misc]
            handler(time, payload)
