"""REPTree: variance-reduction regression tree with reduced-error pruning.

Weka's REPTree — the model the paper ultimately recommends (§7.2:
"best trade-offs between accuracy, complexity as well as prediction
time") — is a fast decision tree that

1. grows by choosing, at each node, the (feature, threshold) split
   maximising variance reduction, and
2. prunes bottom-up against a held-out *pruning set*: a subtree is
   collapsed to a leaf whenever the leaf's held-out squared error is
   no worse than the subtree's (reduced-error pruning, the "REP").

The fitted tree is flat node arrays in preorder: feature, threshold,
(left, right) children and value; a leaf has feature -1 and is its own
left and right child.  Prediction moves every row down one level per
step with NumPy gathers.  Split-point search is vectorised:
candidate thresholds are scored with prefix-sum statistics in
O(n log n) per feature, for a block of features at a time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_Xy
from repro.ml.preprocessing import train_val_split
from repro.utils.rng import SeedLike

#: Most (rows × features) elements one split-search block may cover.
#: A block holds about a dozen temporaries of this size, so the cap
#: bounds the search's scratch memory whatever the node size: 0.8 MiB
#: on the STP's 7200 x 22 training matrix, no more than scoring one
#: feature at a time, where all 22 features at once would hold over
#: 12 MiB.  Larger caps fit no faster.
SPLIT_BLOCK_ELEMENTS = 1 << 13


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float, float] | None:
    """(feature, threshold, variance_gain) of the best split, or None.

    Features are scored in blocks of at most
    :data:`SPLIT_BLOCK_ELEMENTS` elements, each block vectorised over
    its features and their candidate thresholds via cumulative sums of
    the target sorted by each feature.  Ties resolve as a scan of one
    feature at a time would: the lowest threshold within a feature,
    then the lowest feature index.
    """
    n, d = X.shape
    if n < 2:
        return None
    base_sse = float(((y - y.sum() / n) ** 2).sum())
    # Split after sorted position i puts k = i+1 samples left.
    k = np.arange(1, n)[:, None]
    size_ok = (k >= min_leaf) & (n - k >= min_leaf)
    best = None
    best_gain = 1e-12
    width = max(1, SPLIT_BLOCK_ELEMENTS // n)
    for start in range(0, d, width):
        block = X[:, start : start + width]
        cols = np.arange(block.shape[1])
        order = block.argsort(axis=0, kind="stable")
        xs = block[order, cols]
        ys = y[order]
        csum = ys.cumsum(axis=0)
        csq = (ys**2).cumsum(axis=0)
        left_sum, left_sq = csum[:-1], csq[:-1]
        right_sum = csum[-1] - left_sum
        right_sq = csq[-1] - left_sq
        sse = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (n - k))
        sse[~(size_ok & (xs[1:] > xs[:-1]))] = np.inf
        rows = sse.argmin(axis=0)
        gains = (base_sse - sse[rows, cols]).tolist()
        for c, gain in enumerate(gains):
            if gain > best_gain:
                i = rows[c]
                best_gain = gain
                best = (start + c, float((xs[i, c] + xs[i + 1, c]) / 2.0), gain)
    return best


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

    # ------------------------------------------------------------ growth
    def _grow(self, nodes: tuple[list, ...], X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree grown on (X, y) to the preorder node
        lists (feature, threshold, left, right, value); return the
        index of its root."""
        feature, threshold, left, right, value = nodes
        i = len(value)
        feature.append(-1)
        threshold.append(0.0)
        left.append(i)
        right.append(i)
        value.append(float(y.sum() / len(y)))
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or y.max() == y.min():
            return i
        split = _best_split(X, y, self.min_leaf)
        if split is None:
            return i
        j, thr, _gain = split
        mask = X[:, j] <= thr
        feature[i] = j
        threshold[i] = thr
        left[i] = self._grow(nodes, X[mask], y[mask], depth + 1)
        right[i] = self._grow(nodes, X[~mask], y[~mask], depth + 1)
        return i

    # ----------------------------------------------------------- pruning
    def _prune(self, nodes: tuple[list, ...], i: int, X: np.ndarray, y: np.ndarray) -> float:
        """Bottom-up REP of the subtree at node ``i``, turning pruned
        subtrees' roots into leaves in place; returns the subtree's
        held-out SSE."""
        feature, threshold, left, right, value = nodes
        leaf_sse = float(((y - value[i]) ** 2).sum()) if len(y) else 0.0
        if feature[i] < 0:
            return leaf_sse
        mask = X[:, feature[i]] <= threshold[i]
        sub_sse = self._prune(nodes, left[i], X[mask], y[mask]) + self._prune(
            nodes, right[i], X[~mask], y[~mask]
        )
        if leaf_sse <= sub_sse:
            feature[i] = -1
            left[i] = right[i] = i
            return leaf_sse
        return sub_sse

    def _set_nodes(self, nodes: tuple[list, ...]) -> None:
        """Store the nodes reachable from the root as the fitted arrays.

        Pruning only detaches whole subtrees, so the reachable nodes
        keep their preorder when renumbered in index order.
        """
        feature, threshold, left, right, value = (np.asarray(a) for a in nodes)
        reached = np.zeros(len(value), dtype=bool)
        reached[0] = True
        for i in range(len(value)):
            if reached[i] and feature[i] >= 0:
                reached[left[i]] = reached[right[i]] = True
        keep = np.flatnonzero(reached)
        renumber = np.cumsum(reached) - 1
        self.feature_ = feature[keep].astype(np.intp)
        self.threshold_ = threshold[keep].astype(float)
        self.children_ = renumber[np.column_stack([left[keep], right[keep]])]
        self.value_ = value[keep].astype(float)

    # --------------------------------------------------------------- API
    def fit(self, X: np.ndarray, y: np.ndarray) -> "REPTree":
        X, y = check_Xy(X, y)
        self.n_features_ = X.shape[1]
        nodes: tuple[list, ...] = ([], [], [], [], [])
        if self.prune and len(y) >= 8:
            Xt, yt, Xv, yv = train_val_split(
                X, y, val_fraction=self.prune_fraction, seed=self.seed
            )
            self._grow(nodes, Xt, yt, depth=0)
            self._prune(nodes, 0, Xv, yv)
        else:
            self._grow(nodes, X, y, depth=0)
        self._set_nodes(nodes)
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
