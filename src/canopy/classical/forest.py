"""Random forests and extremely randomized trees over the tree learner.

rf: bootstrap resample + best midpoint splits on a sqrt(f) feature subset.
extra: the whole learning sample (no bootstrap) + random cut-points.
Hard prediction is the majority class vote across trees; probabilities are
the mean of the per-tree leaf class frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import make_rng, spawn_seeds
from .tree import DecisionTree, check_int, check_tree_params, check_xy, tree_fit


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    classes: np.ndarray
    variant: str
    bootstrap: bool
    feature_rule: str
    seed: int

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((len(X), len(self.classes)))
        for tree in self.trees:  # a tree that saw fewer classes fills fewer columns
            out[:, np.searchsorted(self.classes, tree.classes)] += tree.predict_proba(X)
        return out / len(self.trees)

    def predict(self, X) -> np.ndarray:
        """Majority class vote; ties break toward the smallest class."""
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((len(X), len(self.classes)), dtype=np.int64)
        for tree in self.trees:
            pred = tree.predict(X)
            votes[np.arange(len(X)), np.searchsorted(self.classes, pred)] += 1
        return self.classes[np.argmax(votes, axis=1)]


CUTPOINTS = {"rf": "best", "extra": "random"}  # variant -> tree_fit cutpoint


def check_forest_params(
    n_estimators, variant, max_depth, min_samples_split, feature_rule, bootstrap
) -> None:
    """forest_fit's checks on its settings, and on those it hands to
    tree_fit; they need no data."""
    check_int("n_estimators", n_estimators, 1)
    if variant not in ("rf", "extra"):
        raise ValueError("variant must be 'rf' or 'extra'")
    if bootstrap is not None and not isinstance(bootstrap, bool):
        raise TypeError(f"bootstrap must be true or false, got {bootstrap!r}")
    check_tree_params("gini", max_depth, min_samples_split, feature_rule, CUTPOINTS[variant])


def forest_fit(
    X,
    y,
    n_estimators: int = 200,
    variant: str = "rf",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    feature_rule: str = "sqrt",
    bootstrap: bool | None = None,
    seed: int = 0,
) -> ForestModel:
    """Fit a forest of gini trees; bootstrap follows the variant unless set
    (rf resamples, extra uses the full sample). A single rf tree with
    feature_rule='all' and bootstrap=False reduces to the plain tree."""
    check_forest_params(n_estimators, variant, max_depth, min_samples_split, feature_rule, bootstrap)
    X, y = check_xy(X, y)
    if len(X) < 2:
        raise ValueError("forest training needs at least 2 samples")
    if bootstrap is None:
        bootstrap = variant == "rf"
    rng = make_rng(seed)
    trees: list[DecisionTree] = []
    for tree_seed in spawn_seeds(seed, n_estimators):
        idx = rng.integers(0, len(X), size=len(X)) if bootstrap else np.arange(len(X))
        trees.append(tree_fit(X[idx], y[idx], max_depth=max_depth, feature_rule=feature_rule,
                              min_samples_split=min_samples_split, cutpoint=CUTPOINTS[variant],
                              seed=tree_seed))
    return ForestModel(trees=trees, classes=np.unique(y), variant=variant, bootstrap=bootstrap,
                       feature_rule=feature_rule, seed=seed)
