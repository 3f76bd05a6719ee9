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
from .tree import DecisionTree, check_tree_params, tree_fit


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
        for tree in self.trees:
            probs = tree.predict_proba(X)
            for j, c in enumerate(tree.classes):
                out[:, int(np.searchsorted(self.classes, c))] += probs[:, j]
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


def check_forest_params(n_estimators, variant, criterion, max_depth, feature_rule) -> None:
    """forest_fit's checks on its settings, and on those it hands to
    tree_fit; they need no data."""
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    if variant not in ("rf", "extra"):
        raise ValueError("variant must be 'rf' or 'extra'")
    rule = "sqrt" if feature_rule is None else feature_rule
    check_tree_params(criterion, max_depth, rule, CUTPOINTS[variant])


def forest_fit(
    X,
    y,
    n_estimators: int = 200,
    variant: str = "rf",
    criterion: str = "gini",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    feature_rule: str | None = None,
    bootstrap: bool | None = None,
    seed: int = 0,
) -> ForestModel:
    """Fit a forest; defaults follow the variant (rf bootstraps and scans
    best cuts, extra uses the full sample and random cuts). feature_rule
    and bootstrap may be overridden, e.g. a single rf tree with
    feature_rule='all' and bootstrap=False reduces to the plain tree."""
    check_forest_params(n_estimators, variant, criterion, max_depth, feature_rule)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(X) < 2:
        raise ValueError("forest training needs at least 2 samples")
    if bootstrap is None:
        bootstrap = variant == "rf"
    if feature_rule is None:
        feature_rule = "sqrt"
    cutpoint = CUTPOINTS[variant]
    classes = np.unique(y)

    rng = make_rng(seed)
    tree_seeds = spawn_seeds(seed, n_estimators)
    trees: list[DecisionTree] = []
    for t in range(n_estimators):
        if bootstrap:
            idx = rng.integers(0, len(X), size=len(X))
        else:
            idx = np.arange(len(X))
        trees.append(
            tree_fit(
                X[idx],
                y[idx],
                criterion=criterion,
                max_depth=max_depth,
                min_samples_split=min_samples_split,
                feature_rule=feature_rule,
                cutpoint=cutpoint,
                seed=tree_seeds[t],
            )
        )
    return ForestModel(
        trees=trees,
        classes=classes,
        variant=variant,
        bootstrap=bootstrap,
        feature_rule=feature_rule,
        seed=seed,
    )
