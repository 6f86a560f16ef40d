"""The ECoST wait queue (§5, Fig. 4).

Arriving jobs join the tail of a FIFO.  ECoST's pairing step may
prefer a job other than the head (e.g. an I-class job to pair with a
running application), so a job can leave the queue out of order
("leaping forward").  The paper guards such leaps with a head
reservation, the backfill rule of [Sabin et al., JSSPP'03 / ICPP'04]
it cites: a leap must not delay the head.

Partner fills take no reservation today: the controller lets every
leap through (``allow_leap=True``), and the head's only guarantee is
that it takes every empty node.  The reservation rule is an open
ROADMAP item; ``allow_leap`` is the seam it will use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.workloads.base import AppClass, AppInstance

if TYPE_CHECKING:
    from repro.core.stp import AppDescriptor


@dataclass
class QueuedApp:
    """One queued application with its classifier tag."""

    instance: AppInstance
    app_class: AppClass
    arrival_time: float
    #: The STP descriptor it was queued with; a cluster change does not
    #: re-profile a queued application.
    descriptor: AppDescriptor | None = None

    @property
    def label(self) -> str:
        return self.instance.label


class WaitQueue:
    """FIFO whose non-head items may leap forward when allowed.

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
        when ``allow_leap`` is true; the queue checks no reservation
        itself, so the caller decides whether a leap may delay the
        head.  Ties go to FIFO order.
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
