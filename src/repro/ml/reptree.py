"""REPTree: variance-reduction regression tree with reduced-error pruning.

Weka's REPTree — the model the paper ultimately recommends (§7.2:
"best trade-offs between accuracy, complexity as well as prediction
time") — is a fast decision tree that

1. grows by choosing, at each node, the (feature, threshold) split
   maximising variance reduction, and
2. prunes bottom-up against a held-out *pruning set*: a subtree is
   collapsed to a leaf whenever the leaf's held-out squared error is
   no worse than the subtree's (reduced-error pruning, the "REP").

The fit works one depth at a time.  Each feature is argsorted once, at
the root; every split then stably partitions those per-feature row
orders, so each node's rows stay sorted by value, ties in row order —
the order a stable argsort of the node's own rows gives.  All open
nodes of a depth are scored together, in blocks of (node, feature)
rows of at most :data:`SPLIT_BLOCK_ELEMENTS` padded elements: each
row's prefix sums run over that node alone, and a split's squared
error is read only where the feature's value changes.  A row whose
node holds a single value of the feature is not scored at all.  Pruning routes
the pruning set down the grown tree the same way and collapses
subtrees bottom-up, one depth at a time.

The tree is the one a node-at-a-time search grows, node for node.
That rests on the same floating-point operations in the same order: a
node's mean, base squared error and held-out error are ``.sum()``
reductions over its targets in row order (NumPy sums eight or more
elements pairwise, so a padded or segmented sum would differ), its
prefix sums are left-to-right ``cumsum``, ties keep the lowest
threshold and then the lowest feature, and a NaN gain never wins.

The fitted tree is flat node arrays in preorder: feature, threshold,
(left, right) children and value; a leaf has feature -1 and is its own
left and right child, and a pruned node keeps its grown threshold.
Prediction moves every row down one level per step with NumPy
gathers.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_Xy
from repro.ml.preprocessing import train_val_split
from repro.utils.rng import SeedLike

#: Most padded elements one scoring block covers: (node, feature) rows
#: times the widest node's row count.  A block holds about ten
#: temporaries of this size, about half a MiB at 2^13, so the cap
#: (which also sizes the partition's 2-D sorts) bounds the fit's
#: scratch memory beside the presorted row orders
#: (features + 1 small integers per training row) whatever the node
#: sizes: a whole fit on the STP's 7200 x 22 training matrix peaks at
#: 2.6 MiB traced.  A node wider than the cap is scored one feature at
#: a time.  Larger caps fitted no faster.
SPLIT_BLOCK_ELEMENTS = 1 << 13


def _index_dtype(n: int) -> type:
    """The smallest signed integer type that indexes ``n`` items."""
    return np.int16 if n < 2**15 else np.int32 if n < 2**31 else np.int64


def _segment_sums(values: np.ndarray, bounds: np.ndarray, nodes) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for each node ``i``."""
    lo, hi = bounds[:-1].tolist(), bounds[1:].tolist()
    return np.array([values[lo[i] : hi[i]].sum() for i in nodes], dtype=float)


def _partition(
    order: np.ndarray, rows: range, m: int, key: np.ndarray, m_new: int
) -> None:
    """Stably sort ``order[j, :m]`` for each ``j`` in ``rows`` by
    ``key`` of its entries, keeping the first ``m_new``.

    The rows are sorted together, in 2-D chunks of at most
    :data:`SPLIT_BLOCK_ELEMENTS` elements (one row at a time where a
    row is longer): a stable sort's result is unique, so a chunk's row
    is sorted exactly as it would be alone.
    """
    step = max(1, SPLIT_BLOCK_ELEMENTS // max(m, 1))
    for j in range(rows.start, rows.stop, step):
        lines = order[j : min(j + step, rows.stop), :m]
        by_key = key.take(lines).argsort(axis=1, kind="stable")[:, :m_new]
        order[j : j + len(lines), :m_new] = np.take_along_axis(lines, by_key, axis=1)


def _score(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    base: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(gain, position) of the best split of each (node, feature).

    Node ``i`` owns ``order[:, starts[i]:starts[i] + sizes[i]]`` and
    has base squared error ``base[i]``; nodes come largest first.  Row
    ``i * d + j`` of the result is node ``i``, feature ``j``: the gain
    of its lowest best threshold, which lies after sorted position
    ``position`` (``-inf``, or NaN, where no split is valid).  A row
    whose first and last sorted values are equal has no valid split and
    is not scored.
    """
    d = X.shape[1]
    stride = order.shape[1]
    flat, x_flat = order.ravel(), X.ravel()
    total = len(sizes) * d
    gain = np.full(total, -np.inf)
    position = np.zeros(total, dtype=np.intp)
    node, feat = np.divmod(np.arange(total), d)
    lo = feat * stride + starts[node]
    first = x_flat.take(flat.take(lo).astype(np.intp) * d + feat)
    last = x_flat.take(flat.take(lo + sizes[node] - 1).astype(np.intp) * d + feat)
    live = np.flatnonzero(last > first)
    r0 = 0
    while r0 < len(live):
        width = int(sizes[live[r0] // d])
        r1 = min(len(live), r0 + max(1, SPLIT_BLOCK_ELEMENTS // width))
        rows = live[r0:r1]
        node, feat = np.divmod(rows, d)
        n = sizes[node]
        # Each row padded to the block's widest node with whatever rows
        # follow it in the order array; nothing past a node's end is read.
        idx = flat.take((feat * stride + starts[node])[:, None] + np.arange(width))
        idx = idx.astype(np.intp)
        ys = y.take(idx)
        csum = ys.cumsum(axis=1)
        csq = np.square(ys, out=ys).cumsum(axis=1)
        idx *= d
        idx += feat[:, None]
        xs = x_flat.take(idx)
        # Split after sorted position p puts k = p + 1 rows left.
        p = np.arange(width - 1)
        valid = xs[:, 1:] > xs[:, :-1]
        valid &= p >= min_leaf - 1
        valid &= p <= (n - min_leaf - 1)[:, None]
        r, p = np.divmod(np.flatnonzero(valid), width - 1)
        k, nr = p + 1, n[r]
        left_sum, left_sq = csum[r, p], csq[r, p]
        right_sum = csum[r, nr - 1] - left_sum
        right_sq = csq[r, nr - 1] - left_sq
        sse = np.full(valid.shape, np.inf)
        sse[r, p] = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (nr - k))
        best = sse.argmin(axis=1)
        gain[rows] = base[node] - sse[np.arange(len(best)), best]
        position[rows] = best
        r0 = r1
    return gain, position


class _Level:
    """The nodes of one depth, in creation (breadth-first) order.

    ``child[i]`` is the next depth's index of node ``i``'s left child
    (the right child follows it), or -1 for a leaf.
    """

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self.feature = np.full(len(value), -1, dtype=np.intp)
        self.threshold = np.zeros(len(value))
        self.child = np.full(len(value), -1, dtype=np.intp)


def _split_keys(
    level: _Level, X: np.ndarray, rows: np.ndarray, bounds: np.ndarray, n_children: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """(child bounds, number of child rows, key by row) of one depth's
    splits.

    ``key[r]`` is the next depth's index of the child row ``r`` goes
    to, or ``n_children`` for a row of a leaf; ``rows`` are the
    depth's rows, node after node.
    """
    node = np.repeat(np.arange(len(level.value)), np.diff(bounds))
    child = level.child[node]
    right = X[rows, level.feature[node]] > level.threshold[node]
    dest = np.where(child >= 0, child + right, n_children)
    key = np.empty(X.shape[0], dtype=_index_dtype(n_children + 1))
    key[rows] = dest
    counts = np.bincount(dest, minlength=n_children + 1)[:n_children]
    return np.concatenate(([0], np.cumsum(counts))), int(counts.sum()), key


def _grow(X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int) -> list[_Level]:
    """Grow the tree on ``(X, y)`` one depth at a time."""
    X = np.ascontiguousarray(X)
    n, d = X.shape
    # Row d of ``order`` holds each node's rows in row order, and row
    # j < d the same rows sorted by feature j, ties in row order.  Each
    # depth keeps its nodes' rows in the first m columns, node after
    # node.
    order = np.empty((d + 1, n), dtype=_index_dtype(n))
    for j in range(d):
        order[j] = X[:, j].argsort(kind="stable")
    order[d] = np.arange(n)
    bounds = np.array([0, n])
    levels: list[_Level] = []
    while True:
        depth = len(levels)
        counts = np.diff(bounds)
        m = int(bounds[-1])
        yo = y.take(order[d, :m])
        sums = _segment_sums(yo, bounds, range(len(counts)))
        level = _Level(sums / counts)
        levels.append(level)
        if depth >= max_depth:
            return levels
        # A node whose targets are all equal stays a leaf.
        nonempty = np.flatnonzero(counts)
        lo = bounds[nonempty]
        varies = np.zeros(len(counts), dtype=bool)
        varies[nonempty] = np.maximum.reduceat(yo, lo) > np.minimum.reduceat(yo, lo)
        open_ = np.flatnonzero((counts >= 2 * min_leaf) & varies)
        if open_.size == 0:
            return levels
        open_ = open_[np.argsort(-counts[open_], kind="stable")]
        sq_dev = (yo - np.repeat(level.value, counts)) ** 2
        base = _segment_sums(sq_dev, bounds, open_.tolist())
        starts = bounds[open_]
        gain, position = _score(X, y, order, starts, counts[open_], base, min_leaf)
        gain = gain.reshape(-1, d)
        gain[~(gain > 1e-12)] = -np.inf
        best = gain.argmax(axis=1)
        won = np.flatnonzero(gain[np.arange(len(best)), best] > -np.inf)
        if won.size == 0:
            return levels
        node, f = open_[won], best[won]
        at = starts[won] + position.reshape(-1, d)[won, f]
        level.feature[node] = f
        level.threshold[node] = (X[order[f, at], f] + X[order[f, at + 1], f]) / 2.0
        split = np.sort(node)
        level.child[split] = 2 * np.arange(len(split))
        bounds, m_new, key = _split_keys(level, X, order[d, :m], bounds, 2 * len(split))
        # The last depth's nodes are all leaves: only their rows matter.
        first = 0 if depth + 1 < max_depth else d
        _partition(order, range(first, d + 1), m, key, m_new)


def _prune(levels: list[_Level], X: np.ndarray, y: np.ndarray) -> None:
    """Bottom-up reduced-error pruning against ``(X, y)``, turning
    pruned subtrees' roots into leaves in place."""
    # Route the pruning rows down the grown tree as _grow routed the
    # training rows: each depth's rows node after node, in row order.
    rows = np.arange(len(y), dtype=_index_dtype(len(y)))[None, :]
    bounds = np.array([0, len(y)])
    held_out = []
    for level in levels:
        counts = np.diff(bounds)
        m = int(bounds[-1])
        sq_err = (y.take(rows[0, :m]) - np.repeat(level.value, counts)) ** 2
        reached = np.flatnonzero(counts)
        sse = np.zeros(len(level.value))
        sse[reached] = _segment_sums(sq_err, bounds, reached.tolist())
        held_out.append(sse)
        n_split = np.count_nonzero(level.child >= 0)
        if n_split:
            bounds, m_new, key = _split_keys(level, X, rows[0, :m], bounds, 2 * n_split)
            _partition(rows, range(1), m, key, m_new)
    below = None
    for level, sse in zip(reversed(levels), reversed(held_out)):
        inner = np.flatnonzero(level.child >= 0)
        if inner.size:
            sub = below[level.child[inner]] + below[level.child[inner] + 1]
            cut = sse[inner] <= sub
            level.feature[inner[cut]] = -1
            level.child[inner[cut]] = -1
            sse[inner[~cut]] = sub[~cut]
        below = sse


class REPTree:
    """Regression tree with reduced-error pruning."""

    def __init__(
        self,
        *,
        max_depth: int = 18,
        min_leaf: int = 2,
        prune: bool = True,
        prune_fraction: float = 0.2,
        seed: SeedLike = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if not 0.0 < prune_fraction < 1.0:
            raise ValueError("prune_fraction must be in (0, 1)")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.prune = prune
        self.prune_fraction = prune_fraction
        self.seed = seed
        self.n_features_: int | None = None
        #: Node arrays, preorder from the root at 0; ``children_`` is
        #: (n_nodes, 2), left then right.
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.children_: np.ndarray | None = None
        self.value_: np.ndarray | None = None

    def _set_nodes(self, levels: list[_Level]) -> None:
        """Store the nodes reachable from the root as the preorder
        arrays: a left child follows its parent, and the right child
        follows the left child's subtree."""
        sizes = []
        below = None
        for level in reversed(levels):
            size = np.ones(len(level.value), dtype=np.intp)
            inner = np.flatnonzero(level.child >= 0)
            if inner.size:
                size[inner] += below[level.child[inner]] + below[level.child[inner] + 1]
            sizes.append(size)
            below = size
        sizes.reverse()
        total = int(sizes[0][0])
        self.feature_ = np.empty(total, dtype=np.intp)
        self.threshold_ = np.empty(total)
        self.children_ = np.empty((total, 2), dtype=np.intp)
        self.value_ = np.empty(total)
        nodes = pre = np.zeros(1, dtype=np.intp)
        for depth, level in enumerate(levels):
            self.feature_[pre] = level.feature[nodes]
            self.threshold_[pre] = level.threshold[nodes]
            self.value_[pre] = level.value[nodes]
            self.children_[pre] = pre[:, None]
            inner = level.child[nodes] >= 0
            if not inner.any():
                break
            left = level.child[nodes[inner]]
            left_pre = pre[inner] + 1
            right_pre = left_pre + sizes[depth + 1][left]
            self.children_[pre[inner]] = np.column_stack([left_pre, right_pre])
            nodes = np.concatenate([left, left + 1])
            pre = np.concatenate([left_pre, right_pre])

    # --------------------------------------------------------------- API
    def fit(self, X: np.ndarray, y: np.ndarray) -> "REPTree":
        X, y = check_Xy(X, y)
        self.n_features_ = X.shape[1]
        if self.prune and len(y) >= 8:
            Xt, yt, Xv, yv = train_val_split(
                X, y, val_fraction=self.prune_fraction, seed=self.seed
            )
            levels = _grow(Xt, yt, self.max_depth, self.min_leaf)
            _prune(levels, Xv, yv)
        else:
            levels = _grow(X, y, self.max_depth, self.min_leaf)
        self._set_nodes(levels)
        return self

    def _check_fitted(self) -> None:
        if self.value_ is None or self.n_features_ is None:
            raise RuntimeError("model is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X, self.n_features_)
        n, d = X.shape
        flat = X.ravel()
        row_start = np.arange(0, n * d, d)
        children = self.children_.ravel()
        node = np.zeros(n, dtype=np.intp)
        feature = self.feature_.take(node)
        # A row at a leaf reads an arbitrary in-bounds element of X and
        # steps to the leaf itself.
        while feature.max(initial=-1) >= 0:
            go_right = flat.take(row_start + feature) > self.threshold_.take(node)
            node = children.take(2 * node + go_right)
            feature = self.feature_.take(node)
        return self.value_.take(node)

    # ------------------------------------------------------- diagnostics
    @property
    def n_leaves(self) -> int:
        self._check_fitted()
        return int(np.count_nonzero(self.feature_ < 0))

    @property
    def depth(self) -> int:
        self._check_fitted()
        depth, level = 0, np.zeros(1, dtype=np.intp)
        while True:
            inner = level[self.feature_[level] >= 0]
            if inner.size == 0:
                return depth
            level = self.children_[inner].ravel()
            depth += 1
