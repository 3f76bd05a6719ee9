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

from ..data import check_int, make_rng


def _gini_weighted(member: np.ndarray) -> np.ndarray:
    """Weighted gini impurity at every boundary position of every row of a
    (classes, features, n) block of class memberships, each row in sorted
    order."""
    n = member.shape[2]
    cum = np.cumsum(member, axis=2)  # integer counts: every sum below is exact
    left = cum[:, :, :-1]
    right = cum[:, :, -1:] - left
    n_left = np.arange(1, n, dtype=np.float64)
    sq_left = np.add.reduce(left * left) / n_left
    sq_right = np.add.reduce(right * right) / (n - n_left)
    return 1.0 - (sq_left + sq_right) / n


def _mse_weighted(y_sorted: np.ndarray) -> np.ndarray:
    """Weighted child variance at every boundary position of every row of a
    (features, n) block of targets, each row in sorted order. In place, as a
    freed large temporary goes back to the OS and faults in again on reuse."""
    n = y_sorted.shape[1]
    cs = np.cumsum(y_sorted, axis=1)
    cs2 = np.cumsum(y_sorted * y_sorted, axis=1)
    n_left = np.arange(1, n, dtype=np.float64)
    sl, sl2 = cs[:, :-1], cs2[:, :-1]
    sr, sr2 = cs[:, -1:] - sl, cs2[:, -1:] - sl2
    for s, s2, size in ((sl, sl2, n_left), (sr, sr2, n - n_left)):
        s *= s
        s /= size
        s2 -= s  # the variance of that side
    sl2 += sr2
    sl2 /= n
    return sl2


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


def _best_splits(xs, rows, y, n_classes: int):
    """Best midpoint split of every row of a (features, n) node block.

    Each row of ``xs`` is one feature's values in ascending order and the
    same row of ``rows`` holds their sample ids. ``y`` is each sample's
    class index for gini (``n_classes`` > 0), its target for mse. Returns
    the non-constant rows with their scores, thresholds (ties go to the
    smallest) and, unlike :func:`_random_splits`, no left masks.
    """
    boundary = xs[:, :-1] < xs[:, 1:]
    if n_classes:
        scores = _gini_weighted(y[rows] == np.arange(n_classes)[:, None, None])
    else:
        scores = _mse_weighted(y[rows])
    scores = np.where(boundary, scores, np.inf)
    r = np.arange(len(xs))
    k = np.argmin(scores, axis=1)
    k = np.where(boundary[r, k], k, boundary.argmax(axis=1))  # every score inf
    ok = np.flatnonzero(boundary.any(axis=1))
    threshold = (xs[r, k] + xs[r, k + 1]) / 2.0
    return ok, scores[r, k][ok].tolist(), threshold[ok].tolist(), [None] * len(ok)


def _random_splits(block, rows, y, n_classes: int, rng):
    """One uniform cut-point per non-constant row of a (features, n) node
    block, drawn in row order as ``lo + span * rng.random(k)`` (the oracle
    tests pin it to ``rng.uniform(lo, hi)``). ``rows`` are the node's sample
    ids in block column order, and ``y`` is as in :func:`_best_splits`.
    Returns the rows whose cut leaves neither side empty, with their scores,
    thresholds and left masks.
    """
    n = block.shape[1]
    lo, hi = block.min(axis=1), block.max(axis=1)
    live = lo != hi
    threshold = hi.copy()  # a constant row's cut sends every sample left
    low, span = lo[live], hi[live] - lo[live]
    if not np.isfinite(span).all():  # as uniform() checks
        raise OverflowError("Range exceeds valid bounds")
    threshold[live] = low + span * rng.random(len(span))
    left = block <= threshold[:, None]
    ok = np.flatnonzero(left.sum(axis=1) < n)  # the left is never empty: every cut is >= lo
    left = left[ok]
    sides = np.concatenate((left, ~left))  # every row's left side, then every right side
    if n_classes:
        c = sides @ np.eye(n_classes)[y[rows]]
        m = c.sum(axis=1)  # side sizes: sums of whole numbers, so exact
        g = 1.0 - (c * c).sum(axis=1) / (m * m)
    else:
        yn = y[rows]
        m, g = sides.sum(axis=1), np.array([yn[side].var() for side in sides])
    w = m * g
    return ok, ((w[: len(ok)] + w[len(ok) :]) / n).tolist(), threshold[ok].tolist(), left


def check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Every learner's training data: (n, f) float64 ``X`` and n > 0 ``y``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
        raise ValueError("X must be (n, f) with a matching non-empty y")
    return X, y


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
    check_tree_params(criterion, max_depth, min_samples_split, feature_rule, cutpoint)
    X, y = check_xy(X, y)

    n_features = X.shape[1]
    rng = make_rng(seed)
    if criterion == "gini":  # target: class index
        classes, target = np.unique(y, return_inverse=True)
        n_classes = len(classes)
    else:
        classes, target, n_classes = None, y.astype(np.float64), 0

    n_candidates = n_features if feature_rule == "all" else max(1, int(np.sqrt(n_features)))

    nodes: list = []  # [feature, threshold, left, right, value, n_samples] per node
    split_value = 0.0 if classes is None else np.zeros(len(classes))
    XT = np.ascontiguousarray(X.T)  # feature-major: a node block's rows are contiguous
    order = None  # random cut-points need no sorted order
    if cutpoint == "best":
        # Row f of a node's ``order`` lists its sample ids by feature f. One
        # sort per tree gives the root's; a split partitions each row stably,
        # so a child's rows stay sorted. Gini scores count whole samples, so
        # the order inside a run of tied values cannot change them; mse scores
        # sum floats, so there ties stay in sample order.
        order = np.argsort(XT, axis=1)
        if criterion == "mse":
            xs = np.take_along_axis(XT, order, axis=1)
            tied = np.flatnonzero(~(xs[:, 1:] > xs[:, :-1]).all(axis=1))
            order[tied] = np.argsort(XT[tied], axis=1, kind="stable")

    # Depth-first, left child first: node ids and RNG draws follow this order.
    # A pending node is (sample ids ascending, order, depth, parent id, slot).
    pending = [(np.arange(len(y)), order, 0, -1, 0)]
    while pending:
        idx, order, depth, parent, slot = pending.pop()
        if parent >= 0:
            nodes[parent][slot] = len(nodes)
        n = len(idx)
        if criterion == "gini":
            counts = np.bincount(target[idx], minlength=n_classes)
            pure = np.count_nonzero(counts) == 1  # one class holds every sample
        else:
            counts, pure = None, target[idx].var() <= 0.0
        best = None  # (score, feature, threshold, left mask or None); features ascending
        if not (n < min_samples_split or (max_depth is not None and depth >= max_depth) or pure):
            if n_candidates < n_features:
                feats = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
            else:
                feats = np.arange(n_features)
            if cutpoint == "best":
                block = order if n_candidates == n_features else order[feats]
                found = _best_splits(XT[feats[:, None], block], block, target, n_classes)
            else:
                found = _random_splits(XT[feats[:, None], idx], idx, target, n_classes, rng)
            for j, s, t, m in zip(feats[found[0]].tolist(), *found[1:]):
                if best is None or s < best[0] - 1e-15:
                    best = (s, j, t, m)
        if best is not None:
            mask = XT[best[1], idx] <= best[2] if best[3] is None else best[3]
            if not 0 < np.count_nonzero(mask) < n:  # an inf midpoint separates nothing
                best = None
        if best is None:
            value = counts.astype(np.float64) if criterion == "gini" else float(target[idx].mean())
            nodes.append([-1, 0.0, -1, -1, value, n])
            continue
        _, f, cut, _ = best
        nodes.append([f, cut, -1, -1, split_value, n])
        kids = [None, None]
        if order is not None:  # compress, unlike a boolean index, takes no branch per id
            goes = (XT[f].take(order) <= cut).ravel()
            kids = [order.compress(g).reshape(n_features, -1) for g in (goes, ~goes)]
        pending.append((idx[~mask], kids[1], depth + 1, len(nodes) - 1, 3))
        pending.append((idx[mask], kids[0], depth + 1, len(nodes) - 1, 2))

    arrays = dict(zip(NODE_ARRAYS, map(np.array, zip(*nodes))))
    return DecisionTree(**arrays, criterion=criterion, classes=classes, n_features=n_features)
