"""The ECoST wait queue (§5, Fig. 4).

Arriving jobs join the tail of a FIFO.  The job at the head holds a
*reservation*: it cannot starve, because any job scheduled out of
order ("leaping forward") must not delay it.  ECoST's pairing step
may prefer a job other than the head (e.g. an I-class job to pair
with a running application); the queue permits that leap only when
the head's reservation is not violated — the backfill rule of
[Sabin et al., JSSPP'03 / ICPP'04] the paper cites.

Our admissible-leap criterion: a non-head job may leave the queue
only if at least one other node slot remains available for the head
(so the head could be placed no later than it would have been), or if
the head itself is unplaceable right now and the leaper is strictly
smaller (shorter expected occupancy).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.workloads.base import AppClass, AppInstance


@dataclass
class QueuedApp:
    """One queued application with its classifier tag."""

    instance: AppInstance
    app_class: AppClass
    arrival_time: float
    features: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.instance.label


class WaitQueue:
    """FIFO with head reservation and guarded leap-forward.

    Backed by a :class:`collections.deque`: a steady-state stream pops
    the head on every placement round, and ``list.pop(0)`` shifts the
    whole remainder each time (O(n) per pop, O(n²) per drain).  The
    deque pops its head in O(1); leap-forward removals at an interior
    index stay O(n), which they were before.
    """

    def __init__(self) -> None:
        self._items: deque[QueuedApp] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[QueuedApp]:
        return iter(self._items)

    @property
    def head(self) -> Optional[QueuedApp]:
        return self._items[0] if self._items else None

    def push(self, item: QueuedApp) -> None:
        """Enqueue at the tail."""
        self._items.append(item)

    def pop_head(self) -> QueuedApp:
        if not self._items:
            raise IndexError("pop from empty wait queue")
        return self._items.popleft()

    def select(
        self,
        preference: Callable[[QueuedApp], float],
        *,
        allow_leap: bool,
    ) -> Optional[QueuedApp]:
        """Remove and return the most preferred schedulable job.

        ``preference`` returns a score (higher = more preferred).  The
        head is always eligible.  A non-head candidate is taken only
        when ``allow_leap`` is true — the caller asserts the head's
        reservation holds (another slot remains for it, or the head
        cannot run right now anyway).  Ties go to FIFO order.
        """
        if not self._items:
            return None
        if not allow_leap:
            return self.pop_head()
        best = self._best_index(preference)
        item = self._items[best]
        del self._items[best]
        return item

    def _best_index(self, preference: Callable[[QueuedApp], float]) -> int:
        """Index of the highest-scoring item; ties go to FIFO order."""
        best_i = 0
        best_score = preference(self._items[0])
        for i, item in enumerate(self._items):
            if i == 0:
                continue
            score = preference(item)
            if score > best_score:
                best_i, best_score = i, score
        return best_i
