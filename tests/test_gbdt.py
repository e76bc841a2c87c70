"""The boosted trees against a reference implementation: a per-node argsort
split search and a node-by-node walk. Fitted trees and predictions must be
bit-identical to it, because the search's result files depend on every bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix import gbdt
from demix.errors import ValidationError
from demix.gbdt import BoostedTreesRegressor

# --- the reference ----------------------------------------------------------


def _ref_best_split(X, y, min_samples_leaf):
    n = y.size
    if n < 2 * min_samples_leaf:
        return None
    total_sum = y.sum()
    total_sq = float(y @ y)
    node_sse = total_sq - total_sum * total_sum / n
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        left_n = np.arange(1, n)
        valid = xs[1:] > xs[:-1]
        valid &= (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
        if not valid.any():
            continue
        left_sum = csum[:-1]
        right_sum = total_sum - left_sum
        gain = left_sum**2 / left_n + right_sum**2 / (n - left_n) - total_sum**2 / n
        gain = np.where(valid, gain, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > max(1e-12, 1e-12 * node_sse) and (best is None or gain[k] > best[0]):
            best = (float(gain[k]), f, float((xs[k] + xs[k + 1]) / 2.0))
    return best


def _ref_grow_tree(X, y, max_depth, min_samples_leaf):
    """Parallel node arrays: feature (-1 at a leaf), threshold, left, right, value."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        if depth < max_depth:
            split = _ref_best_split(X[idx], y[idx], min_samples_leaf)
            if split is not None:
                _, f, thr = split
                go_left = X[idx, f] <= thr
                feature[node] = f
                threshold[node] = thr
                left[node] = build(idx[go_left], depth + 1)
                right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(y.size), 0)
    return tuple(np.asarray(a) for a in (feature, threshold, left, right, value))


def _ref_tree_predict(tree, X):
    feature, threshold, left, right, value = tree
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = feature[nodes]
        internal = feat >= 0
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        go_left = X[rows, feat[rows]] <= threshold[nodes[rows]]
        nodes[rows] = np.where(go_left, left[nodes[rows]], right[nodes[rows]])
    return value[nodes]


def _ref_fit(X, y, learning_rate, n_rounds, max_depth, min_samples_leaf):
    base = float(y.mean())
    trees = []
    current = np.full(y.size, base)
    for _ in range(n_rounds):
        tree = _ref_grow_tree(X, y - current, max_depth, min_samples_leaf)
        trees.append(tree)
        current += learning_rate * _ref_tree_predict(tree, X)
    return base, trees


def _ref_predict(base, trees, learning_rate, X):
    out = np.full(X.shape[0], base)
    for tree in trees:
        out += learning_rate * _ref_tree_predict(tree, X)
    return out


def _ref_heap_layout(tree):
    """The reference tree padded to a complete tree of its own depth, in heap
    order: a leaf above the last level splits at +inf into two copies of itself."""
    feature, threshold, left, right, value = tree

    def depth_of(node):
        if feature[node] < 0:
            return 0
        return 1 + max(depth_of(left[node]), depth_of(right[node]))

    depth = depth_of(0)
    heap_feature = np.zeros(2**depth - 1, dtype=np.int64)
    heap_threshold = np.full(2**depth - 1, np.inf)
    heap_value = np.empty(2**depth)

    def place(node, pos, level):
        if level == depth:
            heap_value[pos - (2**depth - 1)] = value[node]
        elif feature[node] < 0:
            place(node, 2 * pos + 1, level + 1)
            place(node, 2 * pos + 2, level + 1)
        else:
            heap_feature[pos] = feature[node]
            heap_threshold[pos] = threshold[node]
            place(left[node], 2 * pos + 1, level + 1)
            place(right[node], 2 * pos + 2, level + 1)

    place(0, 0, 0)
    return heap_feature, heap_threshold, heap_value


def _ref_fit_like(model, X, y):
    return _ref_fit(X, y, model.learning_rate, model.n_rounds, model.max_depth,
                    model.min_samples_leaf)


def _assert_matches_reference(model, reference, pool):
    base, trees = reference
    assert model.base_prediction == base
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        feature, threshold, value = _ref_heap_layout(want)
        assert np.array_equal(got.feature, feature)
        assert np.array_equal(got.threshold, threshold)
        assert np.array_equal(got.value, value)
    assert np.array_equal(model.predict(pool), _ref_predict(base, trees, model.learning_rate, pool))


# --- equivalence ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 200),
    d=st.integers(1, 10),
    max_depth=st.integers(1, 8),
    min_samples_leaf=st.integers(1, 4),
    n_rounds=st.integers(1, 30),
    decimals=st.integers(0, 3),
    duplicate_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_and_predict_match_the_reference_bit_for_bit(
    n, d, max_depth, min_samples_leaf, n_rounds, decimals, duplicate_column, seed
):
    rng = np.random.default_rng(seed)
    # Few decimals tie many X values; a duplicated column ties whole gains.
    X = np.round(rng.random((n, d)), decimals)
    if duplicate_column and d > 1:
        X[:, -1] = X[:, 0]
    y = np.round(rng.normal(size=n), decimals + 1)
    model = BoostedTreesRegressor(
        learning_rate=0.1, n_rounds=n_rounds, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    ).fit(X, y)
    reference = _ref_fit_like(model, X, y)
    # Pool rows on the thresholds themselves, besides fresh and training rows.
    on_threshold = rng.random((64, d))
    splits = [(f, t) for tree in reference[1] for f, t in zip(tree[0], tree[1]) if f >= 0]
    for i, (f, thr) in enumerate(splits):
        on_threshold[i % 64, f] = thr
    pool = np.vstack([on_threshold, X, rng.random((50, d))])
    _assert_matches_reference(model, reference, pool)


@pytest.mark.parametrize(
    "pool_rows",
    [1, 100, gbdt._BLOCK_ROWS, 2 * gbdt._BLOCK_ROWS + 123],
    ids=["one-row", "under-one-block", "one-block", "partial-last-block"],
)
def test_pools_of_any_number_of_blocks_match_the_reference(pool_rows):
    rng = np.random.default_rng(7)
    X = rng.random((80, 3))
    y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=80)
    model = BoostedTreesRegressor(n_rounds=40).fit(X, y)
    _assert_matches_reference(model, _ref_fit_like(model, X, y), rng.random((pool_rows, 3)))


def test_trees_pad_to_their_own_depth():
    # One informative feature of two values: the first tree splits once.
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = BoostedTreesRegressor(n_rounds=1, max_depth=3, min_samples_leaf=1).fit(X, y)
    (tree,) = model.trees
    assert tree.depth == 1
    assert tree.feature.tolist() == [0] and tree.threshold.tolist() == [0.5]
    assert tree.value.tolist() == [-0.5, 0.5]
    constant = BoostedTreesRegressor(n_rounds=1).fit(X, np.ones(4))
    assert constant.trees[0].depth == 0
    assert np.array_equal(constant.predict(np.zeros((3, 1))), np.ones(3))


# --- rejected input -----------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_pool_row_is_a_validation_error(bad):
    model = BoostedTreesRegressor(n_rounds=5).fit(np.random.default_rng(0).random((20, 2)),
                                                  np.arange(20.0))
    pool = np.random.default_rng(1).random((10, 2))
    pool[4, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        model.predict(pool)


def test_fitting_without_features_is_a_validation_error():
    with pytest.raises(ValidationError, match="d >= 1"):
        BoostedTreesRegressor().fit(np.empty((5, 0)), np.arange(5.0))


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        ({"max_depth": 0}, "max_depth"),
        ({"max_depth": gbdt.MAX_DEPTH + 1}, "max_depth"),
        ({"min_samples_leaf": 0}, "min_samples_leaf"),
        ({"learning_rate": -1}, "learning_rate"),
        ({"learning_rate": np.inf}, "learning_rate"),
        ({"learning_rate": np.nan}, "learning_rate"),
    ],
)
def test_out_of_range_hyperparameters_are_validation_errors(kwargs, problem):
    with pytest.raises(ValidationError, match=problem):
        BoostedTreesRegressor(**kwargs)
