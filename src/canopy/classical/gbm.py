"""Gradient boosting over regression trees.

Each stage fits an mse tree to the pseudo-residuals (the negative loss
gradient at the current model), line-searches the stage multiplier, and
updates F <- F + nu * gamma * h. Squared loss starts from the target mean
and its residual is y - F; logistic loss starts from the log-odds of the
positive rate and its residual is y - sigmoid(F).

The line search runs per leaf by default (one Newton step per region,
which for squared loss is exactly the leaf mean already fitted); a single
scalar gamma per stage is available via gamma_mode="stage".
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from ..data import check_int
from ..nn.activations import sigmoid
from .tree import DecisionTree, check_tree_params, check_xy, tree_fit

CLAMP = 1e-12


@dataclass
class GbmModel:
    f0: float
    stages: list[tuple[DecisionTree, float]]  # (tree, stage gamma)
    learning_rate: float
    loss: str
    gamma_mode: str

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        F = np.full(len(X), self.f0)
        for tree, gamma in self.stages:
            F += self.learning_rate * gamma * tree.predict_value(X)
        return F

    def predict(self, X) -> np.ndarray:
        F = self.decision_function(X)
        if self.loss == "logistic":
            return (F >= 0.0).astype(np.int8)
        return F

    def predict_proba(self, X) -> np.ndarray:
        if self.loss != "logistic":
            raise ValueError("probabilities require the logistic loss")
        return sigmoid(self.decision_function(X))


def _newton_leaf_gamma(loss: str, residual: np.ndarray, p: np.ndarray | None) -> float:
    if loss == "squared":
        return float(residual.mean())
    hess = (p * (1.0 - p)).sum()
    return float(residual.sum() / max(hess, CLAMP))


def check_gbm_params(n_stages, learning_rate, max_depth, min_samples_split, loss, gamma_mode) -> None:
    """gbm_fit's checks on its settings, and on those it hands to tree_fit;
    they need no data."""
    check_int("n_stages", n_stages, 1)
    if not (isinstance(learning_rate, Real) and 0.0 < learning_rate <= 1.0):
        raise ValueError(f"learning_rate must lie in (0, 1], got {learning_rate!r}")
    if loss not in ("squared", "logistic"):
        raise ValueError("loss must be 'squared' or 'logistic'")
    if gamma_mode not in ("leaf", "stage"):
        raise ValueError("gamma_mode must be 'leaf' or 'stage'")
    check_tree_params("mse", max_depth, min_samples_split, "all", "best")


def gbm_fit(
    X,
    y,
    n_stages: int = 100,
    learning_rate: float = 0.1,
    max_depth: int | None = 3,
    loss: str = "squared",
    gamma_mode: str = "leaf",
    min_samples_split: int = 2,
    seed: int = 0,
) -> GbmModel:
    check_gbm_params(n_stages, learning_rate, max_depth, min_samples_split, loss, gamma_mode)
    X, y = check_xy(X, y)
    y = y.astype(np.float64, copy=False)
    if loss == "logistic" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("logistic loss requires 0/1 targets")

    if loss == "squared":
        f0 = float(y.mean())
    else:
        pbar = float(np.clip(y.mean(), CLAMP, 1.0 - CLAMP))
        f0 = float(np.log(pbar / (1.0 - pbar)))

    F = np.full(len(y), f0)
    stages: list[tuple[DecisionTree, float]] = []
    for m in range(n_stages):
        p = None if loss == "squared" else sigmoid(F)
        residual = y - (F if p is None else p)
        if not np.isfinite(residual).all():
            raise RuntimeError(f"stage {m}: non-finite pseudo-residuals")

        tree = tree_fit(X, residual, criterion="mse", max_depth=max_depth,
                        min_samples_split=min_samples_split, seed=seed)

        if gamma_mode == "leaf":
            # replace each leaf mean with the Newton-optimal region value
            leaf = tree.apply(X)
            for k in np.unique(leaf):
                rows = leaf == k
                p_k = None if p is None else p[rows]
                tree.value[k] = _newton_leaf_gamma(loss, residual[rows], p_k)
            gamma = 1.0
            h = tree.value[leaf]
        else:
            h = tree.predict_value(X)  # one Newton step on the whole stage
            denom = float(((1.0 if p is None else p * (1.0 - p)) * h * h).sum())
            gamma = float((residual * h).sum() / denom) if denom > 0 else 0.0

        F = F + learning_rate * gamma * h
        stages.append((tree, gamma))

    return GbmModel(
        f0=f0, stages=stages, learning_rate=learning_rate, loss=loss, gamma_mode=gamma_mode
    )
