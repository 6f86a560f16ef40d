"""The pairing decision tree (ECoST Step 2, §5 and Fig. 4/5).

The offline Fig. 5 analysis ranks class pairs by the minimum EDP they
achieve over all core partitionings: I-I is best; pairing *anything*
with an I application minimises EDP; H and C applications are the
next-best partners; M applications are always the worst partner.
ECoST distils that into a priority over the co-runner's class:

    I  >  H  ≥  C  >  M

The scheduler, asked to fill the second slot of a node currently
running a job, walks the wait queue and takes the highest-priority
class available.  It takes no head reservation: the head's guarantee
is that it takes every empty node.

:func:`derive_priority` re-derives the ranking from sweep data rather
than hard-coding it, so the decision tree provably follows from the
reproduction's own Fig. 5 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.wait_queue import QueuedApp, WaitQueue
from repro.workloads.base import AppClass

#: Default co-runner priority (higher pairs first), from Fig. 5.
CLASS_PRIORITY: dict[AppClass, int] = {
    AppClass.IO: 3,
    AppClass.HYBRID: 2,
    AppClass.COMPUTE: 1,
    AppClass.MEMORY: 0,
}


def derive_priority(
    pair_min_edp: Mapping[tuple[AppClass, AppClass], float]
) -> dict[AppClass, int]:
    """Derive the co-runner priority from Fig. 5-style data.

    ``pair_min_edp`` maps unordered class pairs to their best (minimum)
    EDP.  A class's merit is its average rank as a partner: for every
    running class r we sort candidate partners by the pair's EDP, and
    classes that more often appear early earn higher priority.
    """
    classes = sorted({c for pair in pair_min_edp for c in pair}, key=lambda c: c.value)
    if not classes:
        raise ValueError("empty pair EDP table")

    def edp_for(a: AppClass, b: AppClass) -> float:
        key = (a, b) if (a, b) in pair_min_edp else (b, a)
        try:
            return pair_min_edp[key]
        except KeyError:
            raise KeyError(f"missing pair ({a}, {b}) in EDP table") from None

    scores = {c: 0.0 for c in classes}
    for running in classes:
        ranked = sorted(classes, key=lambda p: edp_for(running, p))
        for rank, partner in enumerate(ranked):
            scores[partner] += len(classes) - 1 - rank
    order = sorted(classes, key=lambda c: scores[c])
    return {c: i for i, c in enumerate(order)}


@dataclass
class PairingPolicy:
    """Selects which queued application to co-locate next (Fig. 4).

    The decision tree: given the class of the running application,
    prefer an I-class partner, then H, then C, then M.  When the node
    is empty the head of the queue starts, which is what guarantees
    progress: partner fills take no reservation for the head.
    """

    priority: dict[AppClass, int] = field(
        default_factory=lambda: dict(CLASS_PRIORITY)
    )

    def choose_partner(
        self,
        queue: WaitQueue,
        running_class: AppClass | None,
        *,
        allow_leap: bool = True,
    ) -> QueuedApp | None:
        """Pop the queued app to co-locate with a ``running_class`` job.

        With an empty node (``running_class is None``) the head is
        taken unconditionally.
        """
        if running_class is None:
            return queue.pop_head() if len(queue) else None
        return queue.select(
            lambda qa: float(self.priority[qa.app_class]),
            allow_leap=allow_leap,
        )
