"""Per-label binary decomposition: one independent binary classifier per
vocabulary label, probabilities stitched back into a ProbMatrix.

A label column with a single class gets a constant-probability model equal
to its prevalence (0 or 1) instead of a fitted learner.

On Linux with several usable CPUs, the labels of a large enough training
set are fit in forked worker processes, one strided share each, while the
calling process fits the first share. Each label's fit depends only on its
own seed, so the models are the same as one process would fit.
"""

from __future__ import annotations

import inspect
import os
import pickle
import signal
import sys
import threading
import warnings
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


# A fork and its copy-on-write faults cost ~10-15 ms per call. Below this
# many training cells (samples x features) the fits save less than that:
# 40 x 24 cells of one-tree fits take ~1 ms a label.
FORK_MIN_CELLS = 4_000

_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _n_processes(X: np.ndarray, n_fittable: int) -> int:
    """How many processes share the fits: one unless forking is safe (Linux,
    no other Python thread) and pays off."""
    if (not sys.platform.startswith("linux") or n_fittable < 2 or X.size < FORK_MIN_CELLS
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_fittable)


def _fit_share(spec: LearnerSpec, X, Y, seeds, labels, catch) -> list[tuple[int, Any]]:
    """(label, model) for each label in turn; the first exception of type
    ``catch`` ends the share as (label, exception)."""
    fits: list[tuple[int, Any]] = []
    for j in labels:
        try:
            fits.append((j, _fit_binary(spec, X, Y[:, j].astype(np.int64), seeds[j])))
        except catch as exc:
            fits.append((j, exc))
            break
    return fits


def _fork_share(spec: LearnerSpec, X, Y, seeds, labels):
    """Fork a child that fits ``labels`` and sends back its pickled
    ``_fit_share`` through a pipe. The child ends with ``os._exit``, so it
    flushes nothing and runs no exit handler."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns whenever another OS thread exists, and OpenBLAS
            # starts its pool on import; its fork handlers rebuild it in the child
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except BaseException:  # no child, such as EAGAIN at the process limit
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pickle.dump(_fit_share(spec, X, Y, seeds, labels, BaseException), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb"), labels


def _fit_shares(spec: LearnerSpec, X, Y, seeds, shares, names) -> list[tuple[int, Any]]:
    """Every share's ``_fit_share``: shares[0] in this process, the others in
    forked children. No child outlives the call; if this process's own share
    raises, the children are killed first."""
    children = []
    try:
        for labels in shares[1:]:
            children.append(_fork_share(spec, X, Y, seeds, labels))
        fits = _fit_share(spec, X, Y, seeds, shares[0], ValueError)
        payloads = [pipe.read() for _, pipe, _ in children]
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe, _ in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, labels), payload, status in zip(children, payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            why = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(
                f"the worker process fitting labels {[names[j] for j in labels]} died ({why})"
            )
        fits += pickle.loads(payload)
    return fits


def fit_multioutput(
    spec: LearnerSpec, features: FeatureMatrix, truth: LabelMatrix, seed: int = 0
) -> MultiOutputModel:
    """One independent binary model per label. A learner that cannot fit a
    label is a ValueError naming the learner and the first such label."""
    if features.n_samples != truth.n_samples:
        raise ValueError("features and truth disagree on the number of samples")
    X, Y, names = features.values, truth.values, truth.vocab.names
    seeds = spawn_seeds(seed, truth.n_labels)
    models: list[Any] = [None] * truth.n_labels
    fittable = []
    for j in range(truth.n_labels):
        if Y[:, j].min() == Y[:, j].max():
            models[j] = ConstantModel(probability=float(Y[0, j]))
        else:
            fittable.append(j)
    n = _n_processes(X, len(fittable))
    fits = dict(_fit_shares(spec, X, Y, seeds, [fittable[i::n] for i in range(n)], names))
    for j in sorted(fits):  # the first failure in label order is the one raised
        fit = fits[j]
        if isinstance(fit, ValueError):
            raise ValueError(f"{spec.kind} on label {names[j]!r}: {fit}") from None
        if isinstance(fit, BaseException):
            raise fit
        models[j] = fit
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
