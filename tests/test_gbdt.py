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
            best = (float(gain[k]), f, _ref_midpoint(xs[k], xs[k + 1]))
    return best


def _ref_midpoint(lo, hi):
    """The midpoint of two sorted values, or the lower one where the midpoint
    rounds up to the upper one (adjacent doubles)."""
    mid = float((lo + hi) / 2.0)
    return mid if mid < hi else float(lo)


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


def _walk_predict(model, pool):
    """The model's own heap-ordered trees walked node by node, row by row,
    each tree's term added in tree order."""
    out = np.full(pool.shape[0], model.base_prediction)
    rows = np.arange(pool.shape[0])
    for tree in model.trees:
        node = np.zeros(pool.shape[0], dtype=np.int64)
        for _ in range(tree.depth):
            go_left = pool[rows, tree.feature[node]] <= tree.threshold[node]
            node = np.where(go_left, 2 * node + 1, 2 * node + 2)
        out += model.learning_rate * tree.value[node - tree.feature.size]
    return out


def _assert_walk_matches(model, pool):
    got = model.predict(pool)
    want = _walk_predict(model, pool)
    # Compared as bits, so that -0.0 and 0.0 differ.
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _cuts(model, f):
    """The model's finite thresholds on feature f, sorted, without repeats."""
    return np.unique([t for tree in model.trees for g, t in zip(tree.feature, tree.threshold)
                      if g == f and np.isfinite(t)])


def _smooth_model(n_rounds=40, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.random((80, 3))
    y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=80)
    return BoostedTreesRegressor(n_rounds=n_rounds).fit(X, y), X, y


@pytest.mark.parametrize(
    "block_cells",
    [1, 10**6, "cells", "partial"],
    ids=["one-cell-blocks", "under-one-block", "one-block", "partial-last-block"],
)
def test_pools_of_any_number_of_blocks_match_the_reference(block_cells, monkeypatch):
    model, X, y = _smooth_model()
    rng = np.random.default_rng(8)
    pool = rng.random((3000, 3))
    n_cells = gbdt._cells(*gbdt._ranks(model.trees, pool)[:2])[1].size
    assert 100 < n_cells < pool.shape[0]
    block_cells = {"cells": n_cells, "partial": (n_cells - 1) // 2}.get(block_cells, block_cells)
    depth = max(tree.depth for tree in model.trees)
    monkeypatch.setattr(gbdt, "_BLOCK_BYTES", block_cells << depth)
    _assert_matches_reference(model, _ref_fit_like(model, X, y), pool)


def _pool_inside_cells(model, rng, rows):
    """Rows drawn from a few cells: per feature, values strictly between two
    neighbouring cuts (or beyond the outermost ones), so many rows share a cell."""
    columns = []
    for f in range(model.n_features):
        edges = np.concatenate(([-1.0], _cuts(model, f), [2.0]))
        gap = rng.integers(0, edges.size - 1, size=4)[rng.integers(0, 4, size=rows)]
        frac = rng.uniform(0.05, 0.95, size=rows)
        columns.append(edges[gap] + frac * (edges[gap + 1] - edges[gap]))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize(
    "kind", ["duplicated", "jittered-in-cell", "on-cuts", "zero-row", "one-row"]
)
def test_pools_with_many_rows_per_cell_match_the_reference(kind):
    model, X, y = _smooth_model()
    rng = np.random.default_rng(9)
    if kind == "duplicated":
        pool = rng.random((40, 3))[rng.integers(0, 40, size=2000)]
    elif kind == "jittered-in-cell":
        pool = _pool_inside_cells(model, rng, 2000)
    elif kind == "on-cuts":
        pool = _pool_inside_cells(model, rng, 2000)
        for f in range(3):
            cuts = _cuts(model, f)
            hit = rng.random(2000) < 0.5
            pool[hit, f] = cuts[rng.integers(0, cuts.size, size=hit.sum())]
    else:
        pool = rng.random(({"zero-row": 0, "one-row": 1}[kind], 3))
    _assert_matches_reference(model, _ref_fit_like(model, X, y), pool)
    _assert_walk_matches(model, pool)


def test_negative_zero_scores_like_zero():
    # A fitted threshold at 0.0 = (-1 + 1) / 2, and stumps at -0.0 and 0.0.
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    model = BoostedTreesRegressor(n_rounds=20, min_samples_leaf=1).fit(X, [0.0, 0.1, 1.0, 1.3])
    assert {tree.threshold[0] for tree in model.trees} == {0.0}
    model.trees += [_stump(0, -0.0, 0.5, -0.5), _stump(0, 0.0, -0.25, 0.75)]
    pool = np.array([[-0.0], [0.0], [-5e-324], [5e-324], [-1.0], [1.0]])
    _assert_walk_matches(model, pool)
    # -0.0 and 0.0 fall in one cell, so they score alike.
    assert model.predict(pool)[0] == model.predict(pool)[1]


def test_a_simplex_pool_matches_the_reference():
    from demix.mixture_search import _sample_rows

    rng = np.random.default_rng(10)
    X = _sample_rows(rng, 112, 3)
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=112)
    model = BoostedTreesRegressor(n_rounds=60).fit(X, y)
    pool = _sample_rows(rng, 20_000, 3)
    _assert_matches_reference(model, _ref_fit_like(model, X, y), pool)


def _macro_ranks(rng, X):
    """Search-like targets: each row's rank on every domain (a noisy score per
    column of X), averaged over the domains, so multiples of 1/d with ties."""
    scores = X + 0.1 * rng.normal(size=X.shape)
    return (np.argsort(np.argsort(scores, axis=0), axis=0) + 1).mean(axis=1)


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("n", [64, 96, 112])
def test_a_full_length_fit_on_macro_ranks_matches_the_reference(n, d):
    # The search's fits: 300 rounds over its evaluations so far, on macro
    # ranks. Late rounds grow mostly trees met before.
    from demix.mixture_search import _sample_rows

    rng = np.random.default_rng(100 + n + d)
    X = _sample_rows(rng, n, d)
    y = _macro_ranks(rng, X)
    assert np.array_equal(y * d, np.round(y * d)) and np.unique(y).size < n
    model = BoostedTreesRegressor(n_rounds=300).fit(X, y)
    pool = np.vstack([X, _sample_rows(rng, 2000, d)])
    _assert_matches_reference(model, _ref_fit_like(model, X, y), pool)


@pytest.mark.parametrize(
    "lo, hi",
    [(-5e-324, 0.0), (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0))],
    ids=["below-zero", "above-one"],
)
def test_a_split_between_adjacent_doubles_keeps_rows_on_both_sides(lo, hi):
    # Their midpoint rounds to the upper value (or to -0.0, which equals 0.0),
    # so it would send every row left and leave the right leaf empty.
    assert not (lo + hi) / 2.0 < hi
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0.0, 0.1, 1.0, 1.3])
    model = BoostedTreesRegressor(n_rounds=20, min_samples_leaf=1).fit(X, y)
    for tree in model.trees:
        (threshold,) = tree.threshold
        assert threshold == lo
        # Rows on both sides: each leaf is the mean of real rows.
        assert np.any(X[:, 0] <= threshold) and np.any(X[:, 0] > threshold)
        assert np.all(np.isfinite(tree.value)) and tree.value[0] < tree.value[1]
    _assert_matches_reference(model, _ref_fit_like(model, X, y), np.vstack([X, [[-1.0], [2.0]]]))


def _stump(feature, threshold, left, right):
    return gbdt.RegressionTree(feature=np.array([feature]), threshold=np.array([threshold]),
                               value=np.array([left, right]))


def _model_of(trees, n_features, base=0.25):
    model = BoostedTreesRegressor(learning_rate=0.1)
    model.trees, model.n_features, model.base_prediction = trees, n_features, base
    return model


def test_cell_codes_past_the_radix_limit_match_the_reference():
    # 10 features with 120 cuts each: 121**10 cells exceed 2**62, so the codes
    # are re-ranked before the last features join them.
    rng = np.random.default_rng(11)
    cuts = np.sort(rng.random((10, 120)), axis=1)
    assert 121**10 > 2**62
    trees = [_stump(f, cuts[f, j], *rng.normal(size=2)) for j in rng.permutation(120)
             for f in range(10)]
    model = _model_of(trees, 10)
    pool = rng.random((3000, 10))
    pool[::3, :] = cuts[np.arange(10), rng.integers(0, 120, size=(1000, 10))]
    pool[1::3] = pool[::3]
    _assert_walk_matches(model, pool)


def test_cell_codes_are_re_ranked_before_they_could_wrap():
    # Unranked, the codes of these two rows would be 0 and 2**31 * 2**32 * 2,
    # which wraps to 0 in int64: two cells would merge into one.
    ranks = np.array([[0, 2**31], [0, 0], [0, 0]], dtype=np.uint32)
    order, starts = gbdt._cells(ranks, [2**32, 2**32, 2])
    assert starts.tolist() == [0, 1] and sorted(order.tolist()) == [0, 1]


def test_a_model_of_single_leaves_scores_every_row_alike():
    rng = np.random.default_rng(12)
    trees = [gbdt.RegressionTree(feature=np.zeros(0, dtype=np.int64), threshold=np.zeros(0),
                                 value=np.array([v])) for v in rng.normal(size=30)]
    model = _model_of(trees, 4)
    pool = rng.random((500, 4))
    _assert_walk_matches(model, pool)
    assert np.unique(model.predict(pool)).size == 1
    fitted = BoostedTreesRegressor(n_rounds=5).fit(rng.random((10, 2)), np.full(10, 3.0))
    assert all(tree.depth == 0 for tree in fitted.trees)
    _assert_walk_matches(fitted, rng.random((50, 2)))


@pytest.mark.parametrize("block", [7, gbdt._RANK_BLOCK], ids=["small-blocks", "one-block"])
def test_pool_ranks_match_searchsorted(block, monkeypatch):
    # One feature per cut count: none, one, a full and a just-too-full uint8
    # range, and beyond; the rank array is uint16 then.
    rng = np.random.default_rng(15)
    counts = [0, 1, 2, 255, 256, 300]
    cuts = [np.unique(rng.normal(size=c)) for c in counts]
    cuts[2] = np.array([-0.0, 1.0])
    cuts[3] = np.unique(np.concatenate([cuts[3][:254], [0.0]]))
    X = rng.normal(size=(1000, len(counts)))
    for f, c in enumerate(cuts):
        # Values on the cuts, at both zeros, far beyond both ends, and just past them.
        special = np.concatenate([c, [-0.0, 0.0, -1e300, 1e300]])
        if c.size:
            special = np.concatenate([special, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)])
        X[: special.size, f] = special
        rng.shuffle(X[:, f])
    ranks = np.empty((len(counts), X.shape[0]), dtype=np.min_scalar_type(max(c.size for c in cuts)))
    assert ranks.dtype == np.uint16
    monkeypatch.setattr(gbdt, "_RANK_BLOCK", block)
    gbdt._count_below(cuts, X, ranks)
    for f, c in enumerate(cuts):
        assert np.array_equal(ranks[f], np.searchsorted(c, X[:, f], side="left"))


# --- work and memory ----------------------------------------------------------


def _search_fit_input(d, n=112, seed=16):
    from demix.mixture_search import _sample_rows

    rng = np.random.default_rng(seed + d)
    X = _sample_rows(rng, n, d)
    return X, _macro_ranks(rng, X)


@pytest.mark.parametrize("d", [3, 8])
def test_a_fit_partitions_each_node_once_per_split(d, monkeypatch):
    X, y = _search_fit_input(d)
    partitioned, met = [], set()
    grown = 0
    partition, best_split = gbdt._TreeGrower._partition, gbdt._best_split

    def counting(self, node, split):
        partitioned.append((id(node), split))
        return partition(self, node, split)

    def meeting(node, *args):
        nonlocal grown
        split = best_split(node, *args)
        if split is not None:
            met.add((id(node), split))
            grown += 1
        return split

    monkeypatch.setattr(gbdt._TreeGrower, "_partition", counting)
    monkeypatch.setattr(gbdt, "_best_split", meeting)
    model = BoostedTreesRegressor(n_rounds=300).fit(X, y)
    assert grown == sum(int(np.isfinite(tree.threshold).sum()) for tree in model.trees)
    # Every (node, split) pair met is partitioned once, the first time.
    assert len(partitioned) == len(set(partitioned)) and set(partitioned) == met
    assert len(partitioned) < grown / 3


@pytest.mark.parametrize(
    "d, n, megabytes",
    [(3, 112, 4), (8, 112, 4), (8, 1792, 40)],
    ids=["3", "8", "8-1792"],  # 1,792: the search's largest planned budget
)
def test_a_search_sized_fit_stays_small(d, n, megabytes):
    import tracemalloc

    X, y = _search_fit_input(d, n)
    BoostedTreesRegressor(n_rounds=5).fit(X, y)
    tracemalloc.start()
    try:
        BoostedTreesRegressor(n_rounds=300).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The fit's node cache, which grows with the rows (30.4 MB at 1,792 x 8),
    # the trees and the temporaries.
    assert peak < megabytes * 2**20


def test_each_cell_meets_each_split_structure_once(monkeypatch):
    model, _, _ = _smooth_model(n_rounds=300)
    rng = np.random.default_rng(13)
    distinct = rng.random((500, 3))
    pool = distinct[rng.integers(0, 500, size=50_000)]
    # A cell: the rows that take the same branch at every node of every tree.
    branches = np.concatenate(
        [distinct[:, tree.feature] <= tree.threshold for tree in model.trees], axis=1
    )
    cells = np.unique(branches, axis=0).shape[0]
    structures = len({(tree.feature.tobytes(), tree.threshold.tobytes()) for tree in model.trees})
    assert structures < len(model.trees)
    columns = []
    leaf_index = gbdt._leaf_index

    def counting(feature, limit, block):
        columns.append(block.shape[1])
        return leaf_index(feature, limit, block)

    monkeypatch.setattr(gbdt, "_leaf_index", counting)
    got = model.predict(pool)
    assert sum(columns) <= cells * structures
    assert np.array_equal(got, _walk_predict(model, pool))


def test_scoring_a_100k_simplex_pool_stays_small():
    import tracemalloc

    from demix.mixture_search import _sample_rows

    rng = np.random.default_rng(14)
    X = _sample_rows(rng, 112, 3)
    model = BoostedTreesRegressor().fit(X, np.sin(5 * X[:, 0]) - X[:, 2])
    pool = _sample_rows(rng, 100_000, 3)
    model.predict(pool[:10])
    tracemalloc.start()
    try:
        model.predict(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The pool itself is 2.4 MB; what predict adds stays under 4 MB.
    assert peak < 4 * 2**20


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


def test_predicting_before_fit_is_a_validation_error():
    with pytest.raises(ValidationError, match="predict before fit"):
        BoostedTreesRegressor().predict(np.empty((4, 0)))


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
