"""REPTree tests: growth, pruning, prediction invariants, and exact
agreement with the node-at-a-time fit (one feature per split-search
iteration, recursive growth and pruning) and the per-row tree walk
that the level-by-level fit and the array-backed tree replaced."""

from __future__ import annotations

import copy
import pickle
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import reptree
from repro.ml.preprocessing import train_val_split
from repro.ml.reptree import REPTree


# ------------------------------------------------------------ references
def _ref_best_split(X, y, min_leaf):
    """Split search one feature per iteration."""
    n, d = X.shape
    base_sse = float(((y - y.mean()) ** 2).sum())
    best = None
    best_gain = 1e-12
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total, total_sq = csum[-1], csq[-1]
        k = np.arange(1, n)
        left_sum, left_sq = csum[:-1], csq[:-1]
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (n - k))
        valid = (k >= min_leaf) & (n - k >= min_leaf) & (xs[1:] > xs[:-1])
        if not valid.any():
            continue
        idx = np.flatnonzero(valid)
        i = idx[np.argmin(sse[idx])]
        gain = base_sse - float(sse[i])
        if gain > best_gain:
            best_gain = gain
            best = (j, float((xs[i] + xs[i + 1]) / 2.0), gain)
    return best


@dataclass
class _RefNode:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_RefNode | None" = None
    right: "_RefNode | None" = None


def _ref_grow(X, y, depth, max_depth, min_leaf):
    node = _RefNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_leaf or np.ptp(y) == 0:
        return node
    split = _ref_best_split(X, y, min_leaf)
    if split is None:
        return node
    j, thr, _gain = split
    mask = X[:, j] <= thr
    node.feature, node.threshold = j, thr
    node.left = _ref_grow(X[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _ref_grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def _ref_prune(node, X, y):
    leaf_sse = float(((y - node.value) ** 2).sum()) if len(y) else 0.0
    if node.left is None:
        return leaf_sse
    mask = X[:, node.feature] <= node.threshold
    sub_sse = _ref_prune(node.left, X[mask], y[mask]) + _ref_prune(
        node.right, X[~mask], y[~mask]
    )
    if leaf_sse <= sub_sse:
        node.left = node.right = None
        node.feature = -1
        return leaf_sse
    return sub_sse


def _ref_fit(X, y, *, max_depth=18, min_leaf=2, prune=True, seed=0):
    if prune and len(y) >= 8:
        Xt, yt, Xv, yv = train_val_split(X, y, val_fraction=0.2, seed=seed)
        root = _ref_grow(Xt, yt, 0, max_depth, min_leaf)
        _ref_prune(root, Xv, yv)
        return root
    return _ref_grow(X, y, 0, max_depth, min_leaf)


def _ref_predict(root, X):
    """The per-row tree walk."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = root
        while node.left is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def _ref_nodes(node):
    """Preorder (feature, threshold, value); leaves carry no threshold."""
    if node.left is None:
        return [(-1, None, node.value)]
    return (
        [(node.feature, node.threshold, node.value)]
        + _ref_nodes(node.left)
        + _ref_nodes(node.right)
    )


def _tree_nodes(tree, i=0):
    value = float(tree.value_[i])
    if tree.feature_[i] < 0:
        return [(-1, None, value)]
    left, right = tree.children_[i]
    return (
        [(int(tree.feature_[i]), float(tree.threshold_[i]), value)]
        + _tree_nodes(tree, left)
        + _tree_nodes(tree, right)
    )


def _ref_depth(node):
    if node.left is None:
        return 0
    return 1 + max(_ref_depth(node.left), _ref_depth(node.right))


def _stump_split(X, y, min_leaf):
    """(feature, threshold) of the root of an unpruned depth-1 tree, or
    None when the root is a leaf."""
    tree = REPTree(max_depth=1, min_leaf=min_leaf, prune=False).fit(X, y)
    if tree.feature_[0] < 0:
        return None
    return int(tree.feature_[0]), float(tree.threshold_[0])


def _assert_same_tree(tree, ref, Q):
    """Same nodes and bit-identical predictions on ``Q``; ``repr``
    compares NaN node values (a node no training row reaches) too."""
    assert repr(_tree_nodes(tree)) == repr(_ref_nodes(ref))
    assert np.array_equal(tree.predict(Q), _ref_predict(ref, Q), equal_nan=True)


@st.composite
def _training_sets(draw):
    """Small training sets with ties, rounding, constant columns and
    constant targets."""
    n = draw(st.integers(min_value=1, max_value=90))
    d = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 1e3]))
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        X = np.round(X, decimals)
    for j in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, j] = X[0, j]
    target = draw(st.sampled_from(["noise", "rounded", "step", "constant"]))
    if target == "noise":
        y = rng.normal(size=n)
    elif target == "rounded":
        y = np.round(rng.normal(size=n) * 3.0)
    elif target == "step":
        y = (X[:, 0] > np.median(X[:, 0])) * 5.0 + rng.normal(scale=0.1, size=n)
    else:
        y = np.full(n, float(draw(st.integers(-3, 3))))
    return X, y, rng


def test_fits_a_step_function_exactly():
    X = np.arange(100.0)[:, None]
    y = (X[:, 0] >= 50).astype(float) * 10.0
    tree = REPTree(prune=False).fit(X, y)
    assert np.allclose(tree.predict(X), y)
    assert tree.n_leaves == 2


def test_fits_multi_step():
    X = np.arange(90.0)[:, None]
    y = np.repeat([1.0, 5.0, 9.0], 30)
    tree = REPTree(prune=False).fit(X, y)
    assert np.allclose(tree.predict(X), y)
    assert tree.n_leaves == 3


def test_best_split_maximises_variance_reduction():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    stump = REPTree(max_depth=1, min_leaf=1, prune=False).fit(X, y)
    assert stump.feature_[0] == 0
    assert 1.0 < stump.threshold_[0] < 2.0
    # The split removes the whole SSE of 100.
    assert ((stump.predict(X) - y) ** 2).sum() == 0.0


def test_best_split_none_for_constant_target():
    X = np.arange(10.0)[:, None]
    assert _stump_split(X, np.ones(10), min_leaf=1) is None
    # A split must gain strictly more than 1e-12.
    y = np.ones(10)
    y[-1] += 1e-9
    assert _ref_best_split(X, y, 1) is None
    assert _stump_split(X, y, min_leaf=1) is None


def test_min_leaf_respected():
    X = np.arange(10.0)[:, None]
    y = np.array([0.0] * 9 + [100.0])
    tree = REPTree(min_leaf=3, prune=False).fit(X, y)
    # Cannot isolate the single outlier with min_leaf=3.
    preds = tree.predict(X)
    assert preds[-1] < 100.0


def test_max_depth_limits_tree():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    tree = REPTree(max_depth=2, prune=False).fit(X, y)
    assert tree.depth <= 2
    assert tree.n_leaves <= 4


def test_pruning_never_grows_the_tree():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 4))
    y = X[:, 0] + rng.normal(scale=2.0, size=300)  # very noisy
    unpruned = REPTree(prune=False, seed=0).fit(X, y)
    pruned = REPTree(prune=True, seed=0).fit(X, y)
    assert pruned.n_leaves <= unpruned.n_leaves


def test_pruning_improves_noisy_generalisation():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(400, 2))
    y = (X[:, 0] > 0.5).astype(float) + rng.normal(scale=0.5, size=400)
    X_test = rng.uniform(size=(200, 2))
    y_test = (X_test[:, 0] > 0.5).astype(float)
    unpruned = REPTree(prune=False, seed=0).fit(X, y)
    pruned = REPTree(prune=True, seed=0).fit(X, y)
    err_u = float(((unpruned.predict(X_test) - y_test) ** 2).mean())
    err_p = float(((pruned.predict(X_test) - y_test) ** 2).mean())
    assert err_p <= err_u * 1.1


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_predictions_within_target_range(n, seed):
    """A regression tree predicts leaf means — never outside the
    observed target range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n) * 10
    tree = REPTree(seed=0).fit(X, y)
    preds = tree.predict(rng.normal(size=(20, 3)))
    assert preds.min() >= y.min() - 1e-9
    assert preds.max() <= y.max() + 1e-9


def test_unfitted_raises():
    with pytest.raises(RuntimeError):
        REPTree().predict(np.zeros((1, 2)))


@settings(deadline=None)
@given(
    data=_training_sets(),
    min_leaf=st.integers(min_value=1, max_value=4),
    max_depth=st.sampled_from([1, 2, 3, 5, 18]),
    prune=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
    block_elements=st.sampled_from([1, 7, 64, reptree.SPLIT_BLOCK_ELEMENTS]),
)
def test_matches_reference_tree_exactly(
    data, min_leaf, max_depth, prune, seed, block_elements
):
    """Same tree node for node and bit-identical predictions, whatever
    the split-search block size."""
    X, y, rng = data
    with mock.patch.object(reptree, "SPLIT_BLOCK_ELEMENTS", block_elements):
        tree = REPTree(
            max_depth=max_depth, min_leaf=min_leaf, prune=prune, seed=seed
        ).fit(X, y)
    ref = _ref_fit(X, y, max_depth=max_depth, min_leaf=min_leaf, prune=prune, seed=seed)
    assert _tree_nodes(tree) == _ref_nodes(ref)
    assert tree.n_leaves == len([n for n in _ref_nodes(ref) if n[0] < 0])
    assert tree.depth == _ref_depth(ref)
    # The node arrays are the whole fitted state.
    fitted = {k: v for k, v in vars(tree).items() if k.endswith("_")}
    assert set(fitted) == {
        "n_features_", "feature_", "threshold_", "children_", "value_"
    }

    # Training rows, fresh rows, and rows lying exactly on a threshold.
    inner = np.flatnonzero(tree.feature_ >= 0)
    on_threshold = np.tile(X[0], (len(inner), 1))
    on_threshold[np.arange(len(inner)), tree.feature_[inner]] = tree.threshold_[inner]
    Q = np.vstack(
        [
            X,
            rng.normal(size=(25, X.shape[1])) * np.abs(X).max(initial=1.0),
            on_threshold,
        ]
    )
    expected = _ref_predict(ref, Q)
    assert np.array_equal(tree.predict(Q), expected)
    assert tree.predict(Q[:0]).shape == (0,)
    assert np.array_equal(tree.predict(Q[:1]), expected[:1])
    assert np.array_equal(tree.predict(Q[0]), expected[:1])
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert _tree_nodes(clone) == _tree_nodes(tree)
        assert np.array_equal(clone.predict(Q), expected)


@settings(deadline=None)
@given(
    data=_training_sets(),
    min_leaf=st.integers(min_value=1, max_value=4),
    block_elements=st.sampled_from([1, 7, 64, reptree.SPLIT_BLOCK_ELEMENTS]),
)
def test_best_split_matches_reference(data, min_leaf, block_elements):
    """A stump's root split is the reference search's best split."""
    X, y, _rng = data
    with mock.patch.object(reptree, "SPLIT_BLOCK_ELEMENTS", block_elements):
        split = _stump_split(X, y, min_leaf)
    ref = _ref_best_split(X, y, min_leaf)
    assert split == (None if ref is None else ref[:2])


def test_matches_reference_on_a_large_noisy_fit():
    """Thousands of rows split the upper nodes' search into several
    feature blocks."""
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(3000, 9)), 2)
    y = X[:, 0] * X[:, 3] + np.round(rng.normal(size=3000), 1)
    tree = REPTree(seed=3).fit(X, y)
    ref = _ref_fit(X, y, seed=3)
    assert _tree_nodes(tree) == _ref_nodes(ref)
    Q = rng.normal(size=(500, 9))
    assert np.array_equal(tree.predict(Q), _ref_predict(ref, Q))


def _stp_shaped(n, seed):
    """Rows shaped like the STP's: 22 columns of 2 to 8 distinct values
    each, so many features tie, and a log-EDP-like target."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(2, 9, size=22)
    X = np.column_stack(
        [rng.integers(0, k, size=n) * rng.uniform(0.5, 4.0) for k in levels]
    )
    y = X[:, 0] * X[:, 3] - X[:, 7] + np.round(rng.normal(scale=0.3, size=n), 2)
    return X, y, rng


def test_matches_reference_on_stp_shaped_rows():
    """Thousands of rows whose columns hold few distinct values: every
    node sees ties between features and within them."""
    X, y, rng = _stp_shaped(2400, seed=4)
    tree = REPTree(seed=1).fit(X, y)
    Q = np.vstack([X, rng.normal(size=(300, 22))])
    _assert_same_tree(tree, _ref_fit(X, y, seed=1), Q)


@pytest.mark.slow
def test_matches_reference_on_the_pipeline_dataset(small_dataset):
    """The reduced pipeline's 7200 x 22 log-EDP rows, as the STP fits
    them."""
    X, y = small_dataset.X, np.log(small_dataset.y)
    tree = REPTree(seed=0).fit(X, y)
    _assert_same_tree(tree, _ref_fit(X, y, seed=0), X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("prune", [True, False])
def test_matches_reference_with_overflowing_targets(prune):
    """Overflow follows the reference wherever it strikes.  Targets near
    1e155 overflow their squares, so every gain is NaN, none wins, and
    the tree is one leaf.  Near 1e151 only a large node's squared sums
    overflow, into -inf squared errors and +inf gains, and the tree
    still grows 13 deep."""
    X, y, rng = _stp_shaped(400, seed=2)
    Q = rng.normal(size=(50, 22))
    huge = y * 1e155
    tree = REPTree(prune=prune).fit(X, huge)
    _assert_same_tree(tree, _ref_fit(X, huge, prune=prune), Q)
    assert tree.n_leaves == 1
    large = y * 1e151
    tree = REPTree(prune=prune).fit(X, large)
    _assert_same_tree(tree, _ref_fit(X, large, prune=prune), Q)
    assert tree.depth > 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_gain_never_wins():
    """Three targets whose squares sum right at the float64 limit: in
    feature 0's order (the small target first) the sum overflows and
    every gain is NaN; in feature 1's order it stays finite, and that
    feature's +inf gain wins."""
    big, small = 9.480751908109173e153, 3.4694973507528836e146
    y = np.array([big, big, small])
    X = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 2.0]])
    assert np.isinf((y[[2, 0, 1]] ** 2).cumsum()[-1])
    assert np.isfinite((y**2).cumsum()[-1])
    assert _ref_best_split(X, y, 1)[:2] == (1, 1.5)
    assert _stump_split(X, y, min_leaf=1) == (1, 1.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matches_reference_when_a_midpoint_overflows():
    """A threshold halfway between two huge values overflows to inf, so
    every row goes left and the right child has none."""
    X = np.array([[1e308], [1.5e308]] * 10)
    y = np.tile([0.0, 1.0], 10)
    for prune in (True, False):
        tree = REPTree(max_depth=4, prune=prune).fit(X, y)
        _assert_same_tree(tree, _ref_fit(X, y, max_depth=4, prune=prune), X)
    assert np.isnan(tree.value_).any()


def _fit_peak_bytes(X, y):
    tracemalloc.start()
    try:
        REPTree(seed=0).fit(X, y)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fit_scratch_memory_is_bounded():
    """A whole fit on a random 7200 x 22 matrix, where every sorted
    position is a candidate split, peaks near 3 MiB traced; the
    node-at-a-time fit peaked at 6.85 MiB."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7200, 22))
    y = rng.normal(size=7200)
    assert _fit_peak_bytes(X, y) < 4 * 2**20


def test_fit_scratch_memory_on_the_pipeline_dataset(small_dataset):
    """The STP's own fit peaks near 2.6 MiB traced; the node-at-a-time
    fit peaked at 4.05 MiB."""
    assert _fit_peak_bytes(small_dataset.X, np.log(small_dataset.y)) < 3.5 * 2**20


def test_validation():
    with pytest.raises(ValueError):
        REPTree(max_depth=0)
    with pytest.raises(ValueError):
        REPTree(min_leaf=0)
    with pytest.raises(ValueError):
        REPTree(prune_fraction=1.0)
