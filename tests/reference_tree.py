"""Reference tree learner for the bit-identity oracle tests.

This is canopy's earlier tree representation, kept unchanged as an oracle:
every fitted tree is a recursive graph of ``TreeNode`` objects and
prediction walks one row at a time. ``forest_fit`` and ``gbm_fit`` repeat
the library's seeding and stage loop on top of it (gbm's per-leaf line
search groups rows by leaf object), and return the library's model
classes so prediction goes through the same ensemble code.

Split convention: samples with feature value <= threshold go left. The
"best" rule scans the midpoints between consecutive distinct sorted values;
the "random" rule draws one uniform cut-point per candidate feature inside
its empirical range and keeps the best-scoring feature. Deterministic
tie-breaking: lowest feature index, then smallest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from canopy.classical import ForestModel, GbmModel
from canopy.classical.gbm import CLAMP, _newton_leaf_gamma
from canopy.data import make_rng, spawn_seeds
from canopy.nn.activations import sigmoid


@dataclass
class TreeNode:
    """Split node (feature, threshold, children) or leaf (value).

    Leaf values are class-count vectors for gini trees and means for mse
    trees; ``n_samples`` records the training mass that reached the node.
    """

    n_samples: int
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: object = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini_weighted(y_sorted_onehot: np.ndarray) -> np.ndarray:
    """Weighted gini impurity for every potential boundary position."""
    n = y_sorted_onehot.shape[0]
    cum = np.cumsum(y_sorted_onehot, axis=0)
    total = cum[-1]
    n_left = np.arange(1, n, dtype=np.float64)
    left = cum[:-1]
    right = total - left
    sq_left = (left * left).sum(axis=1) / n_left
    sq_right = (right * right).sum(axis=1) / (n - n_left)
    return 1.0 - (sq_left + sq_right) / n


def _mse_weighted(y_sorted: np.ndarray) -> np.ndarray:
    """Weighted child variance for every potential boundary position."""
    n = y_sorted.shape[0]
    cs = np.cumsum(y_sorted)
    cs2 = np.cumsum(y_sorted * y_sorted)
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    sl, sl2 = cs[:-1], cs2[:-1]
    sr, sr2 = cs[-1] - sl, cs2[-1] - sl2
    var_left = sl2 - sl * sl / n_left
    var_right = sr2 - sr * sr / n_right
    return (var_left + var_right) / n


def _node_impurity(y: np.ndarray, onehot: np.ndarray | None, criterion: str) -> float:
    if criterion == "gini":
        p = onehot.sum(axis=0) / len(y)
        return float(1.0 - (p * p).sum())
    return float(y.var()) if len(y) else 0.0


class DecisionTree:
    """Fitted tree plus the bookkeeping needed for prediction."""

    def __init__(self, root: TreeNode, criterion: str, classes: np.ndarray | None, n_features: int):
        self.root = root
        self.criterion = criterion
        self.classes = classes  # None for regression
        self.n_features = n_features

    def _leaf_for(self, row: np.ndarray) -> TreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def leaves(self, X: np.ndarray) -> list[TreeNode]:
        X = np.asarray(X, dtype=np.float64)
        return [self._leaf_for(row) for row in X]

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Regression mean per row (mse trees)."""
        return np.array([leaf.value for leaf in self.leaves(X)], dtype=np.float64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class frequencies per row (gini trees), columns = classes."""
        if self.classes is None:
            raise ValueError("predict_proba requires a gini tree")
        out = np.empty((len(X), len(self.classes)))
        for i, leaf in enumerate(self.leaves(X)):
            counts = np.asarray(leaf.value, dtype=np.float64)
            out[i] = counts / counts.sum()
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.classes is None:
            return self.predict_value(X)
        return self.classes[np.argmax(self.predict_proba(X), axis=1)]


def _best_split_on_feature(x: np.ndarray, y: np.ndarray, onehot, criterion: str):
    """(score, threshold) of the best midpoint split, or None if constant."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
    if boundaries.size == 0:
        return None
    if criterion == "gini":
        scores = _gini_weighted(onehot[order])
    else:
        scores = _mse_weighted(y[order])
    cand = scores[boundaries]
    k = int(np.argmin(cand))
    b = boundaries[k]
    threshold = (xs[b] + xs[b + 1]) / 2.0
    return float(cand[k]), threshold


def _random_split_on_feature(x: np.ndarray, y: np.ndarray, onehot, criterion: str, rng):
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    mask = x <= threshold
    n_left = int(mask.sum())
    if n_left == 0 or n_left == len(x):
        return None
    n = len(x)
    if criterion == "gini":
        cl = onehot[mask].sum(axis=0)
        cr = onehot[~mask].sum(axis=0)
        gl = 1.0 - (cl * cl).sum() / (n_left * n_left)
        gr = 1.0 - (cr * cr).sum() / ((n - n_left) * (n - n_left))
        score = (n_left * gl + (n - n_left) * gr) / n
    else:
        score = (n_left * y[mask].var() + (n - n_left) * y[~mask].var()) / n
    return float(score), threshold


def tree_fit(
    X,
    y,
    criterion: str = "gini",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    feature_rule: str = "all",
    cutpoint: str = "best",
    seed: int = 0,
) -> DecisionTree:
    """Grow a tree. feature_rule 'sqrt' subsamples floor(sqrt(f)) features
    at every split; cutpoint 'random' is the extremely-randomized rule.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
        raise ValueError("X must be (n, f) with a matching non-empty y")
    if criterion not in ("gini", "mse"):
        raise ValueError("criterion must be 'gini' or 'mse'")
    if cutpoint not in ("best", "random"):
        raise ValueError("cutpoint must be 'best' or 'random'")
    if feature_rule not in ("all", "sqrt"):
        raise ValueError("feature_rule must be 'all' or 'sqrt'")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    n_features = X.shape[1]
    rng = make_rng(seed)
    if criterion == "gini":
        classes = np.unique(y)
        class_index = {c: j for j, c in enumerate(classes)}
        onehot_full = np.zeros((len(y), len(classes)))
        onehot_full[np.arange(len(y)), [class_index[c] for c in y]] = 1.0
        y_num = y
    else:
        classes = None
        onehot_full = None
        y_num = y.astype(np.float64)

    n_candidates = (
        n_features if feature_rule == "all" else max(1, int(np.sqrt(n_features)))
    )

    def leaf(idx: np.ndarray) -> TreeNode:
        if criterion == "gini":
            return TreeNode(n_samples=len(idx), value=onehot_full[idx].sum(axis=0))
        return TreeNode(n_samples=len(idx), value=float(y_num[idx].mean()))

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        sub_y = y_num[idx]
        sub_oh = onehot_full[idx] if onehot_full is not None else None
        if (
            len(idx) < min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or _node_impurity(sub_y, sub_oh, criterion) <= 0.0
        ):
            return leaf(idx)
        if n_candidates < n_features:
            feats = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
        else:
            feats = np.arange(n_features)
        best = None  # (score, feature, threshold)
        for f in feats:
            col = X[idx, f]
            if cutpoint == "best":
                res = _best_split_on_feature(col, sub_y, sub_oh, criterion)
            else:
                res = _random_split_on_feature(col, sub_y, sub_oh, criterion, rng)
            if res is None:
                continue
            score, threshold = res
            if best is None or score < best[0] - 1e-15:
                best = (score, int(f), threshold)
        if best is None:
            return leaf(idx)
        _, f, threshold = best
        mask = X[idx, f] <= threshold
        return TreeNode(
            n_samples=len(idx),
            feature=f,
            threshold=threshold,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )

    root = grow(np.arange(len(y)), depth=0)
    return DecisionTree(root=root, criterion=criterion, classes=classes, n_features=n_features)


def forest_fit(X, y, n_estimators, variant, seed):
    """Library forest seeding (rf bootstraps with best cuts, extra keeps
    the whole sample with random cuts; sqrt feature rule) over reference
    trees."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    bootstrap = variant == "rf"
    cutpoint = "best" if variant == "rf" else "random"
    rng = make_rng(seed)
    trees = []
    for tree_seed in spawn_seeds(seed, n_estimators):
        idx = rng.integers(0, len(X), size=len(X)) if bootstrap else np.arange(len(X))
        trees.append(
            tree_fit(X[idx], y[idx], feature_rule="sqrt", cutpoint=cutpoint, seed=tree_seed)
        )
    return ForestModel(
        trees=trees, classes=np.unique(y), variant=variant, bootstrap=bootstrap,
        feature_rule="sqrt", seed=seed,
    )


def gbm_fit(X, y, n_stages, learning_rate, max_depth, loss, gamma_mode, seed):
    """Library boosting loop over reference mse trees."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if loss == "squared":
        f0 = float(y.mean())
    else:
        pbar = float(np.clip(y.mean(), CLAMP, 1.0 - CLAMP))
        f0 = float(np.log(pbar / (1.0 - pbar)))
    F = np.full(len(y), f0)
    stages = []
    for _ in range(n_stages):
        p = None if loss == "squared" else sigmoid(F)
        residual = y - F if loss == "squared" else y - p
        tree = tree_fit(X, residual, criterion="mse", max_depth=max_depth, seed=seed)
        if gamma_mode == "leaf":
            leaves = tree.leaves(X)
            groups: dict[int, list[int]] = {}
            for i, leaf in enumerate(leaves):
                groups.setdefault(id(leaf), []).append(i)
            node_of = {id(leaf): leaf for leaf in leaves}
            for key, idx in groups.items():
                idx = np.array(idx)
                node_of[key].value = _newton_leaf_gamma(
                    loss, residual[idx], p[idx] if p is not None else None
                )
            gamma = 1.0
            h = tree.predict_value(X)
        else:
            h = tree.predict_value(X)
            if loss == "squared":
                denom = float((h * h).sum())
                gamma = float((h * residual).sum() / denom) if denom > 0 else 0.0
            else:
                denom = float((p * (1.0 - p) * h * h).sum())
                gamma = float((residual * h).sum() / denom) if denom > 0 else 0.0
        F = F + learning_rate * gamma * h
        stages.append((tree, gamma))
    return GbmModel(
        f0=f0, stages=stages, learning_rate=learning_rate, loss=loss, gamma_mode=gamma_mode
    )
