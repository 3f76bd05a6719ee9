"""Decision trees grown top-down greedily, supporting gini classification
and mean-squared-error regression, best-split or random-cut-point rules,
and per-split feature subsampling.

Split convention: samples with feature value <= threshold go left. The
"best" rule scans the midpoints between consecutive distinct sorted values;
the "random" rule draws one uniform cut-point per candidate feature inside
its empirical range and keeps the best-scoring feature. Deterministic
tie-breaking: lowest feature index, then smallest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import make_rng


def _gini_weighted(onehot_sorted: np.ndarray) -> np.ndarray:
    """Weighted gini impurity at every boundary position of every row of a
    (features, n, classes) block of one-hot labels, each row in sorted order."""
    n = onehot_sorted.shape[1]
    cum = np.cumsum(onehot_sorted, axis=1)
    left = cum[:, :-1]
    right = cum[:, -1:] - left
    n_left = np.arange(1, n, dtype=np.float64)
    ones = np.ones(cum.shape[2])  # sums of squared counts: exact in any order
    sq_left = (left * left) @ ones / n_left
    sq_right = (right * right) @ ones / (n - n_left)
    return 1.0 - (sq_left + sq_right) / n


def _mse_weighted(y_sorted: np.ndarray) -> np.ndarray:
    """Weighted child variance at every boundary position of every row of a
    (features, n) block of targets, each row in sorted order."""
    n = y_sorted.shape[1]
    cs = np.cumsum(y_sorted, axis=1)
    cs2 = np.cumsum(y_sorted * y_sorted, axis=1)
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    sl, sl2 = cs[:, :-1], cs2[:, :-1]
    sr, sr2 = cs[:, -1:] - sl, cs2[:, -1:] - sl2
    var_left = sl2 - sl * sl / n_left
    var_right = sr2 - sr * sr / n_right
    return (var_left + var_right) / n


NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples")


@dataclass(eq=False)
class DecisionTree:
    """Fitted tree as parallel node arrays (scikit-learn's ``Tree`` layout),
    numbered depth-first with the left child first, so node 0 is the root.

    ``feature[k]`` is -1 at a leaf; a split sends rows with
    ``X[:, feature[k]] <= threshold[k]`` to ``left[k]``, the rest to
    ``right[k]``. ``value[k]`` is a leaf's class counts (gini) or mean
    (mse), zero at splits; ``n_samples[k]`` is the training mass at node k.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    criterion: str
    classes: np.ndarray | None  # None for regression
    n_features: int

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row, moving every row down one level per step."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))
        while rows.size:
            at = node[rows]
            split = self.feature[at] >= 0
            rows, at = rows[split], at[split]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Regression mean per row (mse trees)."""
        return self.value[self.apply(X)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class frequencies per row (gini trees), columns = classes."""
        if self.classes is None:
            raise ValueError("predict_proba requires a gini tree")
        counts = self.value[self.apply(X)]
        return counts / counts.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.classes is None:
            return self.predict_value(X)
        return self.classes[np.argmax(self.predict_proba(X), axis=1)]


def _best_splits(xs, rows, y, onehot, criterion: str):
    """Best midpoint split of every row of a (features, n) node block.

    Each row of ``xs`` is one feature's values in ascending order and the
    same row of ``rows`` holds their sample ids. Returns the non-constant
    rows with their scores and thresholds; ties go to the smallest
    threshold.
    """
    boundary = xs[:, :-1] < xs[:, 1:]
    if criterion == "gini":
        scores = _gini_weighted(onehot[rows])
    else:
        scores = _mse_weighted(y[rows])
    scores = np.where(boundary, scores, np.inf)
    r = np.arange(len(xs))
    k = np.argmin(scores, axis=1)
    k = np.where(boundary[r, k], k, boundary.argmax(axis=1))  # every score inf
    ok = np.flatnonzero(boundary.any(axis=1))
    threshold = (xs[r, k] + xs[r, k + 1]) / 2.0
    return ok, scores[r, k][ok], threshold[ok]


def _random_splits(block, rows, y, onehot, counts, criterion: str, rng):
    """One uniform cut-point per non-constant row of a (features, n) node
    block, drawn in row order. ``rows`` are the node's sample ids in block
    column order. Returns the rows whose cut leaves neither side empty,
    with their scores and thresholds.
    """
    n = block.shape[1]
    lo, hi = block.min(axis=1), block.max(axis=1)
    live = lo != hi
    threshold = hi.copy()  # a constant row's cut sends every sample left
    threshold[live] = rng.uniform(lo[live], hi[live])
    left = block <= threshold[:, None]
    n_left = left.sum(axis=1)
    ok = np.flatnonzero(n_left < n)  # n_left >= 1: every cut is >= lo
    left, nl = left[ok], n_left[ok]
    nr = n - nl
    if criterion == "gini":
        cl = left @ onehot[rows]
        cr = counts - cl
        gl = 1.0 - (cl * cl).sum(axis=1) / (nl * nl)
        gr = 1.0 - (cr * cr).sum(axis=1) / (nr * nr)
    else:
        yn = y[rows]
        gl = np.array([yn[m].var() for m in left])
        gr = np.array([yn[~m].var() for m in left])
    return ok, (nl * gl + nr * gr) / n, threshold[ok]


def check_int(name: str, value, least: int) -> None:
    """A count setting is an int (numpy ints too; not a bool, float or NaN)
    no smaller than ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_tree_params(criterion, max_depth, min_samples_split, feature_rule, cutpoint) -> None:
    """tree_fit's checks on its settings; they need no data."""
    if criterion not in ("gini", "mse"):
        raise ValueError("criterion must be 'gini' or 'mse'")
    if cutpoint not in ("best", "random"):
        raise ValueError("cutpoint must be 'best' or 'random'")
    if feature_rule not in ("all", "sqrt"):
        raise ValueError("feature_rule must be 'all' or 'sqrt'")
    if max_depth is not None:
        check_int("max_depth", max_depth, 1)
    check_int("min_samples_split", min_samples_split, 2)


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
    check_tree_params(criterion, max_depth, min_samples_split, feature_rule, cutpoint)

    n_features = X.shape[1]
    rng = make_rng(seed)
    if criterion == "gini":
        classes, label = np.unique(y, return_inverse=True)
        onehot = np.eye(len(classes))[label]
        y_num = None
    else:
        classes = onehot = None
        y_num = y.astype(np.float64)

    n_candidates = (
        n_features if feature_rule == "all" else max(1, int(np.sqrt(n_features)))
    )

    nodes: list = []  # [feature, threshold, left, right, value, n_samples] per node
    split_value = 0.0 if classes is None else np.zeros(len(classes))
    XT = np.ascontiguousarray(X.T)  # feature-major: a node block's rows are contiguous
    if cutpoint == "best":
        # Sorted once per tree: ``ranked[f]`` lists the sample ids in ascending
        # order of feature f and ``rank[f, i]`` is sample i's position in it,
        # so sorting a node's ranks sorts its samples. Gini scores count whole
        # samples, so the order inside a run of tied values cannot change
        # them; mse scores sum floats, so there ties stay in sample order.
        ranked = np.argsort(XT, axis=1)
        if criterion == "mse":
            xs = np.take_along_axis(XT, ranked, axis=1)
            tied = np.flatnonzero(~(xs[:, 1:] > xs[:, :-1]).all(axis=1))
            ranked[tied] = np.argsort(XT[tied], axis=1, kind="stable")
        rank = np.empty_like(ranked)
        np.put_along_axis(rank, ranked, np.arange(len(y)), axis=1)

    # Depth-first, left child first: node ids and RNG draws follow this order.
    # A pending node is (sample ids, depth, parent id, parent slot to fill).
    pending = [(np.arange(len(y)), 0, -1, 0)]
    while pending:
        idx, depth, parent, slot = pending.pop()
        if parent >= 0:
            nodes[parent][slot] = len(nodes)
        n = len(idx)
        if criterion == "gini":
            counts = np.bincount(label[idx], minlength=len(classes)).astype(np.float64)
            p = counts / n
            pure = 1.0 - (p * p).sum() <= 0.0
        else:
            counts = None
            pure = y_num[idx].var() <= 0.0
        best = None  # (score, feature, threshold); features ascending
        if not (n < min_samples_split or (max_depth is not None and depth >= max_depth) or pure):
            if n_candidates < n_features:
                feats = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
            else:
                feats = np.arange(n_features)
            if cutpoint == "best":
                col = feats[:, None]
                rows = ranked[col, np.sort(rank[col, idx], axis=1)]
                ok, score, threshold = _best_splits(
                    XT[col, rows], rows, y_num, onehot, criterion
                )
            else:
                ok, score, threshold = _random_splits(
                    XT[feats[:, None], idx], idx, y_num, onehot, counts, criterion, rng
                )
            for j, s, t in zip(feats[ok].tolist(), score.tolist(), threshold.tolist()):
                if best is None or s < best[0] - 1e-15:
                    best = (s, j, t)
        if best is not None:
            mask = XT[best[1], idx] <= best[2]
            if not 0 < np.count_nonzero(mask) < n:  # an inf midpoint separates nothing
                best = None
        if best is None:
            value = counts if criterion == "gini" else float(y_num[idx].mean())
            nodes.append([-1, 0.0, -1, -1, value, n])
            continue
        _, f, cut = best
        nodes.append([f, cut, -1, -1, split_value, n])
        pending.append((idx[~mask], depth + 1, len(nodes) - 1, 3))
        pending.append((idx[mask], depth + 1, len(nodes) - 1, 2))

    arrays = dict(zip(NODE_ARRAYS, map(np.array, zip(*nodes))))
    return DecisionTree(**arrays, criterion=criterion, classes=classes, n_features=n_features)
