"""Per-label binary decomposition: one independent binary classifier per
vocabulary label, probabilities stitched back into a ProbMatrix.

A label column with a single class gets a constant-probability model equal
to its prevalence (0 or 1) instead of a fitted learner.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..data import FeatureMatrix, LabelMatrix, LabelVocabulary, ProbMatrix, spawn_seeds
from .forest import check_forest_params, forest_fit
from .gbm import check_gbm_params, gbm_fit
from .lda import check_lda_params, lda_fit
from .tree import check_tree_params, tree_fit

LEARNER_KINDS = ("lda", "tree", "rf", "extra", "gbm")

# kind -> (fit function, its checks on settings, the keywords _fit_binary sets itself)
_FITS = {
    "lda": (lda_fit, check_lda_params, ()),
    "tree": (tree_fit, check_tree_params, ("criterion", "seed")),
    "rf": (forest_fit, check_forest_params, ("variant", "seed")),
    "extra": (forest_fit, check_forest_params, ("variant", "seed")),
    "gbm": (gbm_fit, check_gbm_params, ("loss", "seed")),
}


def _preset(kind: str, seed: int) -> dict:
    """The keywords _fit_binary sets itself for a learner kind."""
    values = {"criterion": "gini", "variant": kind, "loss": "logistic", "seed": seed}
    return {key: values[key] for key in _FITS[kind][2]}


@dataclass(frozen=True)
class LearnerSpec:
    """Names a classical learner and its hyperparameters.

    Parameter names are checked against the learner's fit signature here,
    and so are the values the learner can check without data, with the
    learner's own checks.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"kind must be one of {LEARNER_KINDS}")
        object.__setattr__(self, "params", dict(self.params))
        fit, check, fixed = _FITS[self.kind]
        signature = inspect.signature(fit)
        allowed = set(signature.parameters) - {"X", "y", "seed", *fixed}
        for key in self.params:
            if key not in allowed:
                raise ValueError(
                    f"unknown parameter {key!r} for learner {self.kind!r}; "
                    f"expected one of {sorted(allowed)}"
                )
        bound = signature.bind(None, None, **_preset(self.kind, 0), **self.params)
        bound.apply_defaults()
        try:
            check(**{key: bound.arguments[key] for key in inspect.signature(check).parameters})
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ValueError(f"bad parameter value for learner {self.kind!r}: {exc}") from None


@dataclass(frozen=True)
class ConstantModel:
    probability: float


def _fit_binary(spec: LearnerSpec, X: np.ndarray, y: np.ndarray, seed: int):
    return _FITS[spec.kind][0](X, y, **_preset(spec.kind, seed), **spec.params)


def _proba_positive(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, ConstantModel):
        return np.full(len(X), model.probability)
    if getattr(model, "classes", None) is not None:
        probs = model.predict_proba(X)
        classes = list(np.asarray(model.classes))
        return probs[:, classes.index(1)]
    return model.predict_proba(X)  # logistic gbm: already P(y=1)


@dataclass
class MultiOutputModel:
    spec: LearnerSpec
    vocab: LabelVocabulary
    models: list[Any]
    n_features: int


def fit_multioutput(
    spec: LearnerSpec, features: FeatureMatrix, truth: LabelMatrix, seed: int = 0
) -> MultiOutputModel:
    """One independent binary model per label. A learner that cannot fit a
    label is a ValueError naming the learner and the label."""
    if features.n_samples != truth.n_samples:
        raise ValueError("features and truth disagree on the number of samples")
    X = features.values
    seeds = spawn_seeds(seed, truth.n_labels)
    models: list[Any] = []
    for j in range(truth.n_labels):
        y = truth.values[:, j].astype(np.int64)
        if y.min() == y.max():
            models.append(ConstantModel(probability=float(y[0])))
            continue
        try:
            models.append(_fit_binary(spec, X, y, seeds[j]))
        except ValueError as exc:
            raise ValueError(f"{spec.kind} on label {truth.vocab.names[j]!r}: {exc}") from None
    return MultiOutputModel(
        spec=spec, vocab=truth.vocab, models=models, n_features=features.n_features
    )


def predict_multioutput(model: MultiOutputModel, features: FeatureMatrix) -> ProbMatrix:
    if features.n_features != model.n_features:
        raise ValueError(
            f"model was fit on {model.n_features} features, got {features.n_features}"
        )
    X = features.values
    cols = [np.clip(_proba_positive(m, X), 0.0, 1.0) for m in model.models]
    return ProbMatrix(values=np.column_stack(cols), vocab=model.vocab)
