"""Gradient-boosted regression trees with squared-error loss.

Small and fully deterministic: exhaustive best-split search with midpoint
thresholds, ties broken by lowest feature index then lowest threshold, no
row or feature subsampling. Intended for the tiny training sets produced by
the mixture search (at most a few hundred observations in <= 10 dimensions),
scored on pools of 100k rows.

Fitting presorts once per fit. Every column of X is argsorted (stably) once,
because X stays fixed for all rounds and only the residuals change. Each
node holds its own (d x m) slice of that index matrix (and of the sorted
values), and a split partitions it with one boolean mask: every row of the
slice holds the same left members, so the masked slice reshapes to
(d x m_left) still sorted, with no new sort.
This is the exact greedy search over presorted columns of XGBoost (Chen &
Guestrin, arXiv:1603.02754). One (d x m-1) gain matrix scores every split of
a node, and its first row-major maximum gives the lowest feature, then the
lowest threshold, on ties.

Scoring walks no tree. Each tree is stored complete, in heap order, down to
its own depth: a leaf above the last level is a node with threshold +inf
over two copies of itself. Rows are scored in fixed blocks, one contiguous
column per feature. Level by level, each node costs one column comparison
(``x <= threshold``) and a few boolean ANDs/ORs over the block, in the
spirit of QuickScorer (Lucchese et al., SIGIR 2015); the go-right bits of
the levels form each row's leaf index, which gathers the leaf values.
Padding costs 2**depth per tree, so ``max_depth`` is bounded by
``MAX_DEPTH``.

The results are bit-identical to a per-node argsort and a node-by-node
walk: a node's presorted slice is exactly the stable argsort of its rows,
the cumulative sums run in the same order, means and sums are taken over
the node's rows in ascending row order, the in-sample update reuses the
leaf partitions the tree was grown from, and trees are added to each row's
sum in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_MIN_GAIN = 1e-12
# A complete tree of depth 8 has 255 split nodes and 256 leaves.
MAX_DEPTH = 8
# Rows scored at once: bounds the scratch memory of predict.
_BLOCK_ROWS = 8192


@dataclass
class RegressionTree:
    """Complete binary regression tree of depth ``depth`` in heap order.

    Split node ``i`` (``0 <= i < 2**depth - 1``) sends rows with
    ``x[feature[i]] <= threshold[i]`` to node ``2i + 1`` and the rest to
    ``2i + 2``; node ``2**depth - 1 + j`` is the leaf holding ``value[j]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray

    @property
    def depth(self) -> int:
        return self.value.size.bit_length() - 1


def _best_split(xs: np.ndarray, ys_sorted: np.ndarray, total_sum: float, total_sq: float,
                min_samples_leaf: int):
    """(feature, threshold) of the best SSE-reducing split of a node, or None.

    ``xs`` and ``ys_sorted`` hold the node's feature values and residuals,
    each row sorted by that row's feature (d x m); ``total_sum`` and
    ``total_sq`` are the residuals' sum and sum of squares."""
    n = xs.shape[1]
    if n < 2 * min_samples_leaf:
        return None
    node_sse = total_sq - total_sum * total_sum / n
    csum = np.cumsum(ys_sorted, axis=1)
    left_n = np.arange(1, n)
    valid = xs[:, 1:] > xs[:, :-1]
    valid &= (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
    left_sum = csum[:, :-1]
    right_sum = total_sum - left_sum
    # SSE decomposes so the gain needs only the two child means.
    gain = left_sum**2 / left_n + right_sum**2 / (n - left_n) - total_sum**2 / n
    gain = np.where(valid, gain, -np.inf)
    # The first maximum in row-major order: lowest feature, then lowest threshold.
    f, k = divmod(int(np.argmax(gain)), n - 1)
    if not gain[f, k] > max(_MIN_GAIN, _MIN_GAIN * node_sse):
        return None
    return f, float((xs[f, k] + xs[f, k + 1]) / 2.0)


def _grow_tree(XT: np.ndarray, order: np.ndarray, xs: np.ndarray, y: np.ndarray,
               max_depth: int, min_samples_leaf: int) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree on the residuals ``y``; returns it with its in-sample
    predictions. ``XT`` is X transposed, ``order`` its stable row-wise argsort
    and ``xs`` the values of ``XT`` in that order."""
    fitted = np.empty(y.size)
    splits: dict[int, tuple[int, float]] = {}
    leaves: list[tuple[int, int, float]] = []

    def build(node: int, rows: np.ndarray, srt: np.ndarray, xs: np.ndarray, depth: int) -> None:
        # Sums over the node's rows in ascending row order, as ``mean`` takes them.
        ys = y[rows]
        total_sum = ys.sum()
        value = float(total_sum / ys.size)
        split = (
            _best_split(xs, y[srt], total_sum, float(ys @ ys), min_samples_leaf)
            if depth < max_depth
            else None
        )
        if split is None:
            leaves.append((node, depth, value))
            fitted[rows] = value
            return
        splits[node] = split
        f, thr = split
        d = srt.shape[0]
        go_left = XT[f, srt] <= thr
        rows_left = XT[f, rows] <= thr
        go_right = ~go_left
        build(2 * node + 1, rows[rows_left], srt[go_left].reshape(d, -1),
              xs[go_left].reshape(d, -1), depth + 1)
        build(2 * node + 2, rows[~rows_left], srt[go_right].reshape(d, -1),
              xs[go_right].reshape(d, -1), depth + 1)

    build(0, np.arange(y.size), order, xs, 0)
    tree_depth = max(depth for _, depth, _ in leaves)
    feature = np.zeros(2**tree_depth - 1, dtype=np.int64)
    threshold = np.full(2**tree_depth - 1, np.inf)
    for node, (f, thr) in splits.items():
        feature[node] = f
        threshold[node] = thr
    value = np.empty(2**tree_depth)
    for node, depth, leaf_value in leaves:
        # The leaf's copies fill the bottom level of its padded subtree.
        span = 2 ** (tree_depth - depth)
        first = (node + 1) * span - 1 - (2**tree_depth - 1)
        value[first : first + span] = leaf_value
    return RegressionTree(feature=feature, threshold=threshold, value=value), fitted


def _leaf_index(tree: RegressionTree, columns: np.ndarray) -> np.ndarray:
    """Leaf position of each row of a block given as ``columns`` (d x b)."""
    # 2**MAX_DEPTH leaves fit a byte, and byte arithmetic is cheapest.
    index = np.zeros(columns.shape[1], dtype=np.uint8)
    # at[j]: the rows at node j of the current level (None: all rows).
    at: list[np.ndarray | None] = [None]
    for level in range(tree.depth):
        first = 2**level - 1
        below: list[np.ndarray | None] = []
        go_right = None
        for j, rows in enumerate(at):
            node = first + j
            left = columns[tree.feature[node]] <= tree.threshold[node]
            if rows is None:
                right = ~left
            else:
                left &= rows
                right = rows ^ left
            below += [left, right]
            go_right = right if go_right is None else go_right | right
        index += index
        index += go_right.view(np.uint8)
        at = below
    return index.astype(np.intp)


@dataclass
class BoostedTreesRegressor:
    """Additive ensemble: prediction = base + learning_rate * sum(tree outputs)."""

    learning_rate: float = 0.02
    n_rounds: int = 300
    max_depth: int = 3
    min_samples_leaf: int = 2
    # Fitted state, set by fit().
    base_prediction: float = field(default=0.0, init=False)
    trees: list[RegressionTree] = field(default_factory=list, init=False)
    n_features: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError("gbdt: learning_rate must be positive and finite")
        if self.n_rounds < 1:
            raise ValidationError("gbdt: n_rounds must be >= 1")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValidationError(f"gbdt: max_depth must be in 1..{MAX_DEPTH}")
        if self.min_samples_leaf < 1:
            raise ValidationError("gbdt: min_samples_leaf must be >= 1")

    def fit(self, X, y) -> "BoostedTreesRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or X.shape[1] == 0:
            raise ValidationError("gbdt: X must be (n, d) with d >= 1 and y length n")
        if y.size < 2:
            raise ValidationError("gbdt: need at least 2 observations")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValidationError("gbdt: non-finite training data")
        self.n_features = X.shape[1]
        self.base_prediction = float(y.mean())
        self.trees = []
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1, kind="stable")
        xs = np.take_along_axis(XT, order, axis=1)
        current = np.full(y.size, self.base_prediction)
        for _ in range(self.n_rounds):
            tree, fitted = _grow_tree(
                XT, order, xs, y - current, self.max_depth, self.min_samples_leaf
            )
            self.trees.append(tree)
            current += self.learning_rate * fitted
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"gbdt: fitted on {self.n_features} features, got rows of shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise ValidationError("gbdt: non-finite rows")
        # learning_rate * value[i] is the same product for every row at leaf i.
        scaled = [self.learning_rate * tree.value for tree in self.trees]
        out = np.full(X.shape[0], self.base_prediction)
        for start in range(0, X.shape[0], _BLOCK_ROWS):
            columns = np.ascontiguousarray(X[start : start + _BLOCK_ROWS].T)
            block = out[start : start + _BLOCK_ROWS]
            for tree, leaf_terms in zip(self.trees, scaled):
                block += leaf_terms[_leaf_index(tree, columns)]
        return out
