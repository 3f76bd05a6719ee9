"""Weighted majority-vote ensembling and integrated stacking: out-of-fold
feature assembly plus a dense meta-learner trained on the concatenated
base-model probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import LabelMatrix, LabelVocabulary, ProbMatrix, _Rows, frozen
from .nn import Network, NetworkSpec, TrainConfig, TrainResult, train


def weighted_vote(preds: Sequence[LabelMatrix], weights: Sequence[int]) -> LabelMatrix:
    """Per-label vote v = sum_j w_j y_j; output 1 iff v > (sum_j w_j) / 2.

    The inequality is strict, so an even total weight can tie every model
    out and produce an all-negative row. Weights are integers >= 1 (numpy
    integers too); a float or a bool is refused, not truncated.
    """
    if len(preds) == 0:
        raise ValueError("weighted_vote needs at least one model")
    if len(weights) != len(preds):
        raise ValueError(f"{len(preds)} models but {len(weights)} weights")
    for x in weights:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 1:
            raise ValueError(f"weights must be integers >= 1, got {x!r}")
    w = [int(x) for x in weights]
    first = preds[0]
    for m in preds[1:]:
        if m.values.shape != first.values.shape:
            raise ValueError("all prediction matrices must share one shape")
        if m.vocab != first.vocab:
            raise ValueError("all prediction matrices must share one vocabulary")
    votes = np.zeros(first.values.shape, dtype=np.int64)
    for weight, m in zip(w, preds):
        votes += weight * m.values.astype(np.int64)
    threshold = sum(w) / 2.0
    return LabelMatrix(values=(votes > threshold).astype(np.int8), vocab=first.vocab)


@dataclass(frozen=True)
class StackedFeatures(_Rows):
    """n_samples x (n_models * n_labels) base-model probabilities in
    model-major column order (model 0's labels first)."""

    values: np.ndarray
    n_models: int
    vocab: LabelVocabulary

    def __post_init__(self):
        width = self.n_models * len(self.vocab)
        v = frozen(self.values, np.float64, "stacked feature matrix", width=width, entries="unit")
        object.__setattr__(self, "values", v)


def _sample_indices(indices, n: int, what: str) -> np.ndarray:
    """``indices`` as int64 when each lies in [0, n) and none repeats, so no
    index wraps or counts twice; ValueError naming the first bad one."""
    idx = np.asarray(indices, dtype=np.int64)
    out = idx[(idx < 0) | (idx >= n)]
    if out.size:
        raise ValueError(f"{what}: sample index {out[0]} is not in [0, {n})")
    repeats = np.delete(idx, np.unique(idx, return_index=True)[1])  # each after its first
    if repeats.size:
        raise ValueError(f"{what}: sample index {repeats[0]} is repeated")
    return idx


def assemble_oof(
    n_samples: int,
    per_model_pieces: Sequence[Sequence[tuple[np.ndarray, ProbMatrix]]],
) -> StackedFeatures:
    """Stitch per-fold holdout predictions into one stacked feature matrix.

    ``per_model_pieces[j]`` lists (row indices, ProbMatrix) pairs for model
    j, one pair per fold; together they must cover every sample exactly
    once, so row i holds only out-of-fold predictions for sample i. The
    result is invariant to the order the pieces are given in.
    """
    if not per_model_pieces:
        raise ValueError("need at least one model")
    if any(len(pieces) == 0 for pieces in per_model_pieces):
        raise ValueError("every model needs at least one prediction piece")
    vocab = per_model_pieces[0][0][1].vocab
    blocks = []
    for j, pieces in enumerate(per_model_pieces):
        covered = np.zeros(n_samples, dtype=bool)
        block = np.zeros((n_samples, len(vocab)))
        for indices, probs in pieces:
            if probs.vocab != vocab:
                raise ValueError(f"model {j}: vocabulary mismatch across pieces")
            idx = _sample_indices(indices, n_samples, f"model {j}")
            if idx.size != probs.n_samples:
                raise ValueError(f"model {j}: {idx.size} indices for {probs.n_samples} rows")
            if covered[idx].any():
                dup = idx[covered[idx]][0]
                raise ValueError(f"model {j}: sample {dup} covered more than once")
            covered[idx] = True
            block[idx] = probs.values
        if not covered.all():
            raise ValueError(f"model {j}: sample {covered.argmin()} has no out-of-fold prediction")
        blocks.append(block)
    return StackedFeatures(
        values=np.concatenate(blocks, axis=1), n_models=len(per_model_pieces), vocab=vocab
    )


@dataclass(frozen=True)
class MetaLearnerConfig:
    """Meta-learner architecture and training settings for stacking. Every
    hidden layer is batch-normalized. A hybrid head's softmax block is the
    truth vocabulary's weather labels."""

    hidden_units: tuple[int, ...] = (64,)
    dropout: float = 0.25
    loss: str = "bce"
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass
class StackModel:
    """Trained meta-learner bound to its vocabulary and model count."""

    network: Network
    n_models: int
    vocab: LabelVocabulary
    history: dict[str, list[float]]
    best_epoch: int

    def predict(self, features: np.ndarray) -> ProbMatrix:
        """Probabilities for rows of stacked features, e.g. ``StackedFeatures.values``."""
        probs = self.network.predict_proba(features)
        return ProbMatrix(values=np.clip(probs, 0.0, 1.0), vocab=self.vocab)


def stack_train(
    features: StackedFeatures,
    truth: LabelMatrix,
    config: MetaLearnerConfig,
    seed: int,
    val_indices,
) -> StackModel:
    """Train the integrated-stacking meta-learner on out-of-fold features.

    ``val_indices`` (e.g. one CV fold) is the validation split driving early
    stopping and best-F2 checkpointing; the other rows train.
    """
    if features.n_samples != truth.n_samples:
        raise ValueError("features and truth disagree on the number of samples")
    if features.vocab != truth.vocab:
        raise ValueError("features and truth use different vocabularies")

    n = features.n_samples
    va = _sample_indices(val_indices, n, "val_indices")
    if va.size == 0 or va.size >= n:
        raise ValueError("val_indices must be a proper non-empty subset")
    tr = np.setdiff1d(np.arange(n), va)

    spec = NetworkSpec(
        in_dim=features.values.shape[1],
        out_dim=truth.n_labels,
        hidden=config.hidden_units,
        batch_norm=True,
        dropout=config.dropout,
        loss=config.loss,
        weather_count=truth.vocab.weather_count if config.loss == "hybrid" else 0,
    )
    network = Network.init(spec, seed=seed)
    y = truth.values.astype(np.float64)
    result: TrainResult = train(
        network,
        features.values[tr],
        y[tr],
        features.values[va],
        y[va],
        config.train,
    )
    return StackModel(
        network=result.network,
        n_models=features.n_models,
        vocab=truth.vocab,
        history=result.history,
        best_epoch=result.best_epoch,
    )
