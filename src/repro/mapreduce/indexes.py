"""Incremental placement indexes for big-cluster scheduling.

At 8 nodes the per-placement costs of the naive structures are noise;
at 256–1024 nodes with 10⁵–10⁶ queued jobs they dominate the run
(see ``tools/profile_scale.py``).  Two structures flatten them:

* :class:`FreeCoreIndex` — a max segment tree over per-node free-core
  counts.  ``first_at_least(k)`` walks down the tree and returns the
  *leftmost* node with ``free >= k`` in O(log n), which is exactly the
  first-fit rule ``fifo_first_fit`` used to pay an O(n) scan for, so
  placements are unchanged byte for byte.
* :class:`PendingQueue` — a list-compatible FIFO whose ``append`` /
  ``remove`` / ``__contains__`` are O(1) by object identity (with an
  equality-scan fallback matching ``list.remove``'s first-equal
  semantics), instead of the O(pending) membership test and removal
  ``ClusterEngine.place`` paid per placement.  Removal tombstones the
  entry; tombstones are discarded lazily at the queue head and by
  periodic compaction, so iteration order stays exactly FIFO.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class FreeCoreIndex:
    """Max segment tree answering leftmost-node-with-capacity queries."""

    __slots__ = ("_size", "_n", "_tree")

    def __init__(self, values: Iterable[int]) -> None:
        vals = list(values)
        n = len(vals)
        if n < 1:
            raise ValueError("FreeCoreIndex needs at least one slot")
        size = 1
        while size < n:
            size *= 2
        tree = [0] * (2 * size)
        tree[size : size + n] = vals
        for i in range(size - 1, 0, -1):
            left, right = tree[2 * i], tree[2 * i + 1]
            tree[i] = left if left >= right else right
        self._size = size
        self._n = n
        self._tree = tree

    def __len__(self) -> int:
        return self._n

    def get(self, index: int) -> int:
        if not 0 <= index < self._n:
            raise IndexError(index)
        return self._tree[self._size + index]

    def set(self, index: int, value: int) -> None:
        """Update one slot and refresh the O(log n) path above it."""
        if not 0 <= index < self._n:
            raise IndexError(index)
        tree = self._tree
        i = self._size + index
        if tree[i] == value:
            return
        tree[i] = value
        i //= 2
        while i:
            left, right = tree[2 * i], tree[2 * i + 1]
            best = left if left >= right else right
            if tree[i] == best:
                break
            tree[i] = best
            i //= 2

    def first_at_least(self, k: int) -> int | None:
        """Leftmost index whose value is ≥ ``k`` (None if no slot is)."""
        if k <= 0:
            return 0
        tree = self._tree
        if tree[1] < k:
            return None
        size = self._size
        i = 1
        while i < size:
            i *= 2
            if tree[i] < k:
                i += 1
        # Padding slots hold 0 and k >= 1, so the walk cannot land there.
        assert i - size < self._n
        return i - size


class PendingQueue:
    """FIFO job queue, list-API-compatible, with O(1) hot-path ops.

    The engine's schedulers only ever touch the head (peek, place,
    remove) plus membership tests, so the queue keeps an identity map
    of live entries and marks removals as tombstones instead of
    shifting list tails.  Equal-but-distinct entries (two ``JobSpec``
    objects that compare equal) fall back to the same first-equal
    linear scan ``list`` performs, keeping observable semantics
    identical.
    """

    __slots__ = ("_entries", "_lo", "_live", "_dead")

    def __init__(self, items: Iterable = ()) -> None:
        self._entries: list = []  # physical slots, including tombstones
        self._lo = 0  # first physical slot not yet consumed
        self._live: set[int] = set()  # id() of live entries
        self._dead: set[int] = set()  # id() of tombstoned entries
        for item in items:
            self.append(item)

    # ------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item) -> bool:
        if id(item) in self._live:
            return True
        return any(entry == item for entry in self)

    def __iter__(self) -> Iterator:
        dead = self._dead
        for entry in self._entries[self._lo :]:
            if id(entry) not in dead:
                yield entry

    def __getitem__(self, index):
        if index == 0:
            self._compact_head()
            if self._lo < len(self._entries):
                return self._entries[self._lo]
            raise IndexError("pending queue is empty")
        items = list(self)
        return items[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PendingQueue({list(self)!r})"

    # ----------------------------------------------------------- mutation
    def append(self, item) -> None:
        key = id(item)
        if key in self._live:
            raise ValueError(
                "the same object is already pending; the queue tracks "
                "entries by identity and cannot hold one twice"
            )
        if key in self._dead:
            # The same object is being re-queued while its tombstone
            # still occupies a slot (the fault injector re-queues specs
            # it placed earlier).  Resolve tombstones physically first
            # so the two occurrences cannot be confused.
            self._compact_all()
        self._entries.append(item)
        self._live.add(key)

    def remove(self, item) -> None:
        """Remove the first entry equal to ``item`` (as ``list.remove``)."""
        key = id(item)
        if key in self._live:
            # The common case: removing the exact pending object.  With
            # unique job ids an equal-earlier entry cannot exist, so
            # first-equal and identity removal coincide.
            self._live.discard(key)
            self._dead.add(key)
        else:
            for entry in self:
                if entry == item:
                    self._live.discard(id(entry))
                    self._dead.add(id(entry))
                    break
            else:
                raise ValueError(f"{item!r} is not pending")
        self._compact_head()
        if len(self._dead) > len(self._live) + 32:
            self._compact_all()

    def clear(self) -> None:
        self._entries.clear()
        self._lo = 0
        self._live.clear()
        self._dead.clear()

    # -------------------------------------------------------- compaction
    def _compact_head(self) -> None:
        entries, dead = self._entries, self._dead
        lo, n = self._lo, len(entries)
        while lo < n and id(entries[lo]) in dead:
            dead.discard(id(entries[lo]))
            lo += 1
        self._lo = lo
        if lo > 512 and lo * 2 > n:
            del entries[:lo]
            self._lo = 0

    def _compact_all(self) -> None:
        dead = self._dead
        self._entries = [
            e for e in self._entries[self._lo :] if id(e) not in dead
        ]
        self._lo = 0
        dead.clear()
