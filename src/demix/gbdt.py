"""Gradient-boosted regression trees with squared-error loss.

Small and fully deterministic: exhaustive best-split search with midpoint
thresholds, ties broken by lowest feature index then lowest threshold, no
row or feature subsampling. Intended for the tiny training sets produced by
the mixture search (at most a few hundred observations in <= 10 dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_MIN_GAIN = 1e-12


@dataclass
class RegressionTree:
    """Binary regression tree stored as parallel node arrays.

    ``feature[i] == -1`` marks node ``i`` as a leaf holding ``value[i]``;
    otherwise samples with ``x[feature[i]] <= threshold[i]`` go to
    ``left[i]`` and the rest to ``right[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[nodes]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            go_left = X[rows, feat[rows]] <= self.threshold[nodes[rows]]
            nodes[rows] = np.where(go_left, self.left[nodes[rows]], self.right[nodes[rows]])
        return self.value[nodes]


def _best_split(X: np.ndarray, y: np.ndarray, min_samples_leaf: int):
    """(gain, feature, threshold) of the best SSE-reducing split, or None."""
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
        # SSE decomposes so the gain needs only the two child means.
        gain = left_sum**2 / left_n + right_sum**2 / (n - left_n) - total_sum**2 / n
        gain = np.where(valid, gain, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > max(_MIN_GAIN, _MIN_GAIN * node_sse) and (
            best is None or gain[k] > best[0]
        ):
            best = (float(gain[k]), f, float((xs[k] + xs[k + 1]) / 2.0))
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int):
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(idx: np.ndarray, depth: int) -> int:
        node = add_node()
        value[node] = float(y[idx].mean())
        if depth < max_depth:
            split = _best_split(X[idx], y[idx], min_samples_leaf)
            if split is not None:
                _, f, thr = split
                go_left = X[idx, f] <= thr
                feature[node] = f
                threshold[node] = thr
                left[node] = build(idx[go_left], depth + 1)
                right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(y.size), 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


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
        if not (self.learning_rate > 0 and self.n_rounds >= 1):
            raise ValidationError("gbdt: learning_rate must be > 0 and n_rounds >= 1")

    def fit(self, X, y) -> "BoostedTreesRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise ValidationError("gbdt: X must be (n, d) and y length n")
        if y.size < 2:
            raise ValidationError("gbdt: need at least 2 observations")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValidationError("gbdt: non-finite training data")
        self.n_features = X.shape[1]
        self.base_prediction = float(y.mean())
        self.trees = []
        current = np.full(y.size, self.base_prediction)
        for _ in range(self.n_rounds):
            tree = _grow_tree(X, y - current, self.max_depth, self.min_samples_leaf)
            self.trees.append(tree)
            current += self.learning_rate * tree.predict(X)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"gbdt: fitted on {self.n_features} features, got rows of shape {X.shape}"
            )
        out = np.full(X.shape[0], self.base_prediction)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out
