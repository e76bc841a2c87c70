"""Gradient-boosted regression trees with squared-error loss.

Small and fully deterministic: exhaustive best-split search with midpoint
thresholds (the lower value where the midpoint of two adjacent doubles rounds
up to the upper one), ties broken by lowest feature index then lowest
threshold, no row or feature subsampling. Intended for the tiny training sets
produced by the mixture search (at most a few hundred observations in <= 10
dimensions), scored on pools of 100k rows.

Fitting presorts once per fit. Every column of X is argsorted (stably) once,
because X stays fixed for all rounds and only the residuals change. Each
node holds its own (d x m) slice of that index matrix, and a split
partitions it with one boolean mask: every row of the slice holds the same
left members, so the masked slice reshapes to (d x m_left) still sorted,
with no new sort.
This is the exact greedy search over presorted columns of XGBoost (Chen &
Guestrin, arXiv:1603.02754). One (d x m-1) gain matrix scores every split of
a node, and its first row-major maximum gives the lowest feature, then the
lowest threshold, on ties.

Each node is partitioned once per fit. A node's rows depend only on the
splits on its path, so a fit caches every node it meets, reached from its
parent by the parent's chosen split: the flat index of the gain matrix's
maximum, which fixes the threshold. A cached node keeps its rows, its
presorted slice and what the gain needs of X alone: both child sizes at
every cut and which cuts are invalid (between equal values, or leaving a
child under ``min_samples_leaf``). A round only gathers the residuals, sums
them and scores the gains; a node is partitioned the first time a round
chooses its split (a 300-round fit on 112 search rows partitions 270-290
nodes for 1,700-1,900 splits). A round's one depth-first pass over the
cached nodes writes the tree's heap arrays and, at each leaf, the leaf's
value to its rows' in-sample predictions.

Scoring walks no tree and scores no cell twice. Each tree is stored
complete, in heap order, down to its own depth: a leaf above the last level
is a node with threshold +inf over two copies of itself. The ensemble's
finite thresholds on a feature are its cuts, and a row's rank on the feature
is the number of cuts below its value (a branch-free binary search over
blocks of rows finds it): ``x <= cut_j`` holds exactly when the rank is
``<= j``, so every node compares a rank with a limit. Rows of equal
ranks on every feature form a cell. They take the same branch at every node
of every tree, so one row per cell is scored and its score copied to the
rest; sorting a mixed-radix code of the ranks finds the cells. Trees with
the same features and thresholds share one leaf index per block of cells
(a search's 300 trees have 160-190 distinct split structures). Level by
level, each node costs one column comparison and a few boolean ANDs/ORs
over the block, in the spirit of QuickScorer (Lucchese et al., SIGIR 2015);
the go-right bits of the levels form each cell's leaf index, which gathers
the leaf values. Padding costs 2**depth per tree, so ``max_depth`` is
bounded by ``MAX_DEPTH``.

The results are bit-identical to a per-node argsort and a node-by-node
walk: a node's presorted slice is exactly the stable argsort of its rows,
the cumulative sums run in the same order, the gain takes the same
operations in the same order, means and sums are taken over the node's rows
in ascending row order, and the in-sample update copies each leaf's value to
the rows the tree was grown from. The caches move only work on X, never an
operation on the residuals. A row's score adds the same
``learning_rate * value`` terms, in tree order, as the walk's: those of its
cell's scored row, which took the same branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_MIN_GAIN = 1e-12
# A complete tree of depth 8 has 255 split nodes and 256 leaves.
MAX_DEPTH = 8
# Cells scored at once are _BLOCK_BYTES >> depth: a level's node masks take
# about 1.5 * 2**depth bytes per cell, so blocks shrink as trees deepen.
_BLOCK_BYTES = 2**18
# Pool rows ranked at once: a block's columns, positions and gathered cuts
# take about (d + 3) * 128 kB for d features.
_RANK_BLOCK = 2**14


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


@dataclass(eq=False, slots=True)
class _Node:
    """A node of one fit's trees: its rows in ascending order and, if it may
    split, what its split search needs that depends only on X."""

    rows: np.ndarray
    depth: int
    # The node's rows sorted (stably) by each feature, (d x m), kept as its
    # first m-1 columns (contiguous: the rows left of each cut) and its last.
    head: np.ndarray | None = None
    last: np.ndarray | None = None
    # Rows left and right of each cut, 1 .. m-1 and m-1 .. 1 (views).
    left_n: np.ndarray | None = None
    right_n: np.ndarray | None = None
    # (d x m-1): cuts between equal values, or leaving a child too small.
    invalid: np.ndarray | None = None
    # Flat split index -> (feature, threshold, left child, right child).
    children: dict[int, tuple[int, float, _Node, _Node]] | None = None


def _best_split(node: _Node, y: np.ndarray, total_sum: float, total_sq: float) -> int | None:
    """Flat index ``f * (m - 1) + k`` of the node's best SSE-reducing split
    (between its k-th and (k+1)-th row sorted by feature f), or None.

    ``total_sum`` and ``total_sq`` are the residuals' sum and sum of squares
    over the node's m rows."""
    m = node.rows.size
    node_sse = total_sq - total_sum * total_sum / m
    left_sum = np.add.accumulate(y[node.head], axis=1)
    right_sum = total_sum - left_sum
    # SSE decomposes so the gain needs only the two child means:
    # left_sum**2 / left_n + right_sum**2 / right_n - total_sum**2 / m,
    # the same operations in the same order, in place.
    right_sum *= right_sum
    right_sum /= node.right_n
    gain = left_sum
    gain *= gain
    gain /= node.left_n
    gain += right_sum
    gain -= total_sum**2 / m
    gain[node.invalid] = -np.inf
    # The first maximum in row-major order: lowest feature, then lowest threshold.
    best = int(gain.argmax())
    if not gain.item(best) > max(_MIN_GAIN, _MIN_GAIN * node_sse):
        return None
    return best


class _TreeGrower:
    """Grows the trees of one fit, caching every node met (from the root, by
    chosen splits), so that a round redoes only the work that depends on the
    residuals."""

    def __init__(self, X: np.ndarray, max_depth: int, min_samples_leaf: int):
        self.XT = np.ascontiguousarray(X.T)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        # XT[features, srt]: each row of srt read on its own feature.
        self.features = np.arange(X.shape[1])[:, None]
        # Rows left and right of each cut of the root; a node's are views.
        self.left_counts = np.arange(1.0, X.shape[0])
        self.right_counts = self.left_counts[::-1]
        order = np.argsort(self.XT, axis=1, kind="stable")
        self.root = self._node(np.arange(X.shape[0]), order, 0)

    def _node(self, rows: np.ndarray, srt: np.ndarray, depth: int) -> _Node:
        if depth == self.max_depth:
            return _Node(rows, depth)
        xs = self.XT[self.features, srt]
        left_n = self.left_counts[: rows.size - 1]
        right_n = self.right_counts[self.XT.shape[1] - rows.size :]
        invalid = xs[:, 1:] <= xs[:, :-1]
        invalid |= (left_n < self.min_samples_leaf) | (right_n < self.min_samples_leaf)
        if invalid.all():
            return _Node(rows, depth)
        head = np.ascontiguousarray(srt[:, :-1])
        return _Node(rows, depth, head, srt[:, -1].copy(), left_n, right_n, invalid, {})

    def _partition(self, node: _Node, split: int) -> tuple[int, float, _Node, _Node]:
        """The chosen split's feature, threshold and two children."""
        srt = np.concatenate((node.head, node.last[:, None]), axis=1)
        d, m = srt.shape
        f, k = divmod(split, m - 1)
        lo, hi = self.XT[f, srt[f, k : k + 2]]
        # The midpoint of two adjacent doubles can round up to the upper one.
        threshold = float((lo + hi) / 2.0)
        if not threshold < hi:
            threshold = float(lo)
        go_left = self.XT[f, srt] <= threshold
        rows_left = self.XT[f, node.rows] <= threshold
        depth = node.depth + 1
        left = self._node(node.rows[rows_left], srt[go_left].reshape(d, -1), depth)
        right = self._node(node.rows[~rows_left], srt[~go_left].reshape(d, -1), depth)
        return f, threshold, left, right

    def grow(self, y: np.ndarray) -> tuple[RegressionTree, np.ndarray]:
        """One tree on the residuals ``y``, with its in-sample predictions."""
        top = 2**self.max_depth
        feature = np.zeros(top - 1, dtype=np.int64)
        threshold = np.full(top - 1, np.inf)
        value = np.empty(top)
        fitted = np.empty(y.size)
        depth = 0
        stack = [(self.root, 0)]
        while stack:
            node, heap = stack.pop()
            # Sums over the node's rows in ascending row order, as ``mean`` takes them.
            ys = y[node.rows]
            total_sum = ys.sum()
            split = None if node.head is None else _best_split(node, y, total_sum, float(ys @ ys))
            if split is None:
                # The leaf's copies fill the bottom level of its padded subtree.
                span = top >> node.depth
                first = (heap + 1) * span - top
                value[first : first + span] = fitted[node.rows] = total_sum / ys.size
                depth = max(depth, node.depth)
                continue
            children = node.children.get(split)
            if children is None:
                children = node.children[split] = self._partition(node, split)
            feature[heap], threshold[heap], left, right = children
            stack += [(right, 2 * heap + 2), (left, 2 * heap + 1)]
        # Down to the tree's own depth: its first levels, and every
        # (top / 2**depth)-th slot of the bottom level.
        size = 2**depth
        tree = RegressionTree(feature[: size - 1].copy(), threshold[: size - 1].copy(),
                              value[:: top // size].copy())
        return tree, fitted


def _ranks(trees: list[RegressionTree], X: np.ndarray):
    """Each row's rank on every feature, the number of ranks per feature, and
    each tree's split nodes as rank limits.

    A row's rank on feature f is the number of the ensemble's cuts on f (its
    finite thresholds) below the row's value, so ``x <= cut_j`` exactly when
    the rank is ``<= j``: a node with threshold ``cut_j`` has limit ``j``.
    Padding nodes (threshold +inf) get a limit no rank exceeds."""
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    split = np.isfinite(threshold)
    on = [split & (feature == f) for f in range(X.shape[1])]
    cuts = [np.sort(threshold[on_f]) for on_f in on]
    cuts = [c[_run_starts(c)] for c in cuts]
    top = max(c.size for c in cuts)
    ranks = np.empty((X.shape[1], X.shape[0]), dtype=np.min_scalar_type(top))
    limit = np.full(feature.size, top, dtype=ranks.dtype)
    for f, (c, on_f) in enumerate(zip(cuts, on)):
        limit[on_f] = np.searchsorted(c, threshold[on_f])
    _count_below(cuts, X, ranks)
    bounds = np.cumsum([tree.feature.size for tree in trees])[:-1]
    return ranks, [c.size + 1 for c in cuts], np.split(limit, bounds)


def _count_below(cuts: list[np.ndarray], X: np.ndarray, out: np.ndarray) -> None:
    """``out[f, i]`` = the number of ``cuts[f]`` below ``X[i, f]``, as
    ``np.searchsorted(cuts[f], X[i, f])`` gives it, by a branch-free binary
    search over blocks of rows.

    With the cuts padded by +inf to 2**L - 1 values, a position p starts at
    0 and, at steps s = 2**(L-1), ..., 1, moves up by s where
    ``padded[p + s - 1] < x``. Each level is a gather, a compare and a
    scaled add over the block, which beats ``searchsorted``'s per-value
    branches."""
    searches = []
    for c in cuts:
        levels = c.size.bit_length()
        padded = np.full(2**levels - 1, np.inf)
        padded[: c.size] = c
        # padded[s - 1:] gathered at p reads padded[p + s - 1].
        searches.append([(1 << level, padded[(1 << level) - 1 :])
                         for level in reversed(range(levels))])
    for first in range(0, X.shape[0], _RANK_BLOCK):
        columns = X[first : first + _RANK_BLOCK].T.copy()
        for f, steps in enumerate(searches):
            x = columns[f]
            position = np.zeros(x.size, dtype=np.intp)
            for step, shifted in steps:
                position += (np.take(shifted, position) < x) * step
            out[f, first : first + x.size] = position


def _cells(ranks: np.ndarray, n_ranks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rows ordered by cell, and where each cell starts in that order.

    A cell is a combination of ranks, one per feature (``n_ranks[f]`` of them
    on feature f), coded in mixed radix."""
    code = np.zeros(ranks.shape[1], dtype=np.int64)
    radix = 1  # codes lie in [0, radix)
    for rank, count in zip(ranks, n_ranks):
        if count == 1:
            continue
        if radix * count > 2**62:
            # Re-rank the codes so far before the mixed radix could overflow.
            distinct, code = np.unique(code, return_inverse=True)
            code = code.astype(np.int64, copy=False)
            radix = distinct.size
        code *= count
        code += rank
        radix *= count
    order = np.argsort(code)
    code.sort()  # in place: no second pool-sized array
    return order, np.flatnonzero(_run_starts(code))


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts, as a mask.
    (``np.unique`` would do, but it imports ``numpy.ma``: 1.3 MB resident.)"""
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _leaf_index(feature: np.ndarray, limit: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Leaf position of each row of a block of ranks given as ``columns``
    (d x b), in the tree whose heap-ordered split nodes send rows with
    ``rank[feature[i]] <= limit[i]`` left."""
    # 2**MAX_DEPTH leaves fit a byte, and byte arithmetic is cheapest.
    index = np.zeros(columns.shape[1], dtype=np.uint8)
    # at[j]: the rows at node j of the current level (None: all rows).
    at: list[np.ndarray | None] = [None]
    for level in range(feature.size.bit_length()):
        first = 2**level - 1
        below: list[np.ndarray | None] = []
        go_right = None
        for j, rows in enumerate(at):
            node = first + j
            left = columns[feature[node]] <= limit[node]
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
    return index


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
        grower = _TreeGrower(X, self.max_depth, self.min_samples_leaf)
        current = np.full(y.size, self.base_prediction)
        for _ in range(self.n_rounds):
            tree, fitted = grower.grow(y - current)
            self.trees.append(tree)
            current += self.learning_rate * fitted
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees:
            raise ValidationError("gbdt: predict before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"gbdt: fitted on {self.n_features} features, got rows of shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise ValidationError("gbdt: non-finite rows")
        ranks, n_ranks, limits = _ranks(self.trees, X)
        order, starts = _cells(ranks, n_ranks)
        # learning_rate * value[i] is the same product for every row at leaf i.
        scaled = [self.learning_rate * tree.value for tree in self.trees]
        structures: dict[tuple[bytes, bytes], int] = {}
        shared = [structures.setdefault((tree.feature.tobytes(), limit.tobytes()),
                                        len(structures))
                  for tree, limit in zip(self.trees, limits)]
        # The trees of one structure recur within a few rounds: its leaf index
        # is dropped after its last tree, so few are held at once.
        last = {k: i for i, k in enumerate(shared)}
        step = _BLOCK_BYTES >> max(tree.depth for tree in self.trees)
        out = np.empty(X.shape[0])
        for first in range(0, starts.size, step):
            # The cells of a block: the rows from heads[j] on, in cell order,
            # share the score of row order[heads[j]].
            heads = starts[first : first + step]
            end = starts[first + step] if first + step < starts.size else X.shape[0]
            columns = np.take(ranks, order[heads], axis=1)
            scores = np.full(heads.size, self.base_prediction)
            leaves: list[np.ndarray | None] = [None] * len(structures)
            for i, k in enumerate(shared):
                if leaves[k] is None:
                    leaves[k] = _leaf_index(self.trees[i].feature, limits[i], columns)
                scores += np.take(scaled[i], leaves[k])
                if last[k] == i:
                    leaves[k] = None
            out[order[heads[0] : end]] = np.repeat(scores, np.diff(heads, append=end))
        return out
