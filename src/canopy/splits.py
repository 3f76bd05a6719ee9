"""Stratified k-fold assignment for multi-label data, plus cross-validated
evaluation of classical learners.

The splitter is the iterative-stratification scheme: repeatedly take the
label with the fewest remaining positives and deal its samples to the fold
that most wants that label, so every fold ends up with approximately the
global positive proportion for every label.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    DataError,
    FeatureMatrix,
    LabelMatrix,
    _Rows,
    frozen,
    make_rng,
    read_table,
    spawn_seeds,
    written_ids,
)
from .metrics import MetricsReport, report
from .thresholds import apply_thresholds


@dataclass(frozen=True)
class FoldAssignment(_Rows):
    """Per-sample fold index in [0, k); folds partition the samples."""

    _rows = "fold_of"
    fold_of: np.ndarray
    k: int

    def __post_init__(self):
        f = frozen(self.fold_of, np.int64, "fold_of", ndim=1)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if f.size and (f.min() < 0 or f.max() >= self.k):
            raise ValueError("fold indices must lie in [0, k)")
        if self.k > f.size:  # before bincount, which would allocate k counts
            raise ValueError(f"k={self.k} exceeds the number of samples ({f.size})")
        counts = np.bincount(f, minlength=self.k)
        if (counts == 0).any():
            raise ValueError("every fold must be non-empty")
        object.__setattr__(self, "fold_of", f)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of != fold)[0]


def _check_k(k: int, n: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of samples ({n})")


def stratified_kfold(truth: LabelMatrix, k: int, seed: int) -> FoldAssignment:
    """Iterative stratification; deterministic for a fixed seed.

    Processing order: the label with the fewest remaining positives first;
    each of its unassigned samples goes to the fold with the greatest
    remaining demand for that label, ties broken by the greatest overall
    remaining capacity and then by a PRNG draw.
    """
    n = truth.n_samples
    _check_k(k, n)
    rng = make_rng(seed)
    y = truth.as_bool()
    # a label above 50% prevalence is easier to balance through its rare
    # complement (rare labels are processed first and spread near-exactly),
    # so stratify those complements as extra virtual labels
    dense = np.nonzero(y.mean(axis=0) > 0.5)[0]
    if dense.size:
        y = np.concatenate([y, ~y[:, dense]], axis=1)

    # the per-sample loop runs on Python floats and lists: the same IEEE
    # values and comparisons as float64 arrays, without numpy's per-call cost
    # demand[l][f]: how many positives of label l fold f still wants
    demand = [[count / k] * k for count in y.sum(axis=0, dtype=np.float64).tolist()]
    capacity = [n / k] * k
    folds = range(k)
    # labels_of[start[i]:start[i + 1]]: the labels of sample i
    labels_of = np.nonzero(y)[1].tolist()
    start = np.concatenate([[0], np.cumsum(y.sum(axis=1))]).tolist()

    def pick_fold(want: list[float] | None) -> int:
        # folds at their size quota stop receiving until every fold is full,
        # keeping sizes within one sample so label proportions track counts
        cand = [f for f in folds if capacity[f] > 0] or list(folds)
        if want is not None:
            top = max(map(want.__getitem__, cand))
            cand = [f for f in cand if want[f] == top]
        if len(cand) > 1:
            top = max(map(capacity.__getitem__, cand))
            cand = [f for f in cand if capacity[f] == top]
        if len(cand) > 1:
            return cand[rng.integers(len(cand))]
        return cand[0]

    def assign(samples: np.ndarray, want: list[float] | None) -> None:
        chosen = []
        for i in samples.tolist():
            f = pick_fold(want)
            chosen.append(f)
            for label in labels_of[start[i] : start[i + 1]]:
                demand[label][f] -= 1.0
            capacity[f] -= 1.0
        fold_of[samples] = chosen
        unassigned[samples] = False

    fold_of = np.full(n, -1, dtype=np.int64)
    unassigned = np.ones(n, dtype=bool)
    labels_per_sample = y.sum(axis=1)
    while True:
        remaining_pos = (y & unassigned[:, None]).sum(axis=0)
        active = np.nonzero(remaining_pos > 0)[0]
        if active.size == 0:
            break
        label = int(active[np.argmin(remaining_pos[active])])
        members = np.nonzero(y[:, label] & unassigned)[0]
        # most-constrained samples first: their many demand counters are
        # still informative early in the sweep
        members = members[np.argsort(-labels_per_sample[members], kind="stable")]
        assign(members, demand[label])

    assign(np.nonzero(unassigned)[0], None)  # samples with no positive labels
    return FoldAssignment(fold_of=fold_of, k=k)


def save_folds(path: str | Path, ids: Sequence[str], folds: FoldAssignment) -> None:
    """CSV `image_name,fold`."""
    keys = written_ids(ids, folds.n_samples)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("image_name,fold\n")
        fh.writelines(f"{key},{f}\n" for key, f in zip(keys, folds.fold_of.tolist()))


def load_folds(path: str | Path) -> tuple[list[str], FoldAssignment]:
    table = read_table(path, ("image_name", "fold"), width=2)
    try:
        fold_of = list(map(int, table.values))
    except ValueError:
        for line, cell in zip(table.lines, table.values):
            try:
                int(cell)
            except ValueError:
                raise DataError(f"{path}: row {line}: non-integer fold {cell!r}") from None
    n = len(fold_of)
    if not n:
        raise DataError(f"{path}: no fold rows")
    if not 0 <= min(fold_of) <= max(fold_of) < n:
        i = next(i for i, f in enumerate(fold_of) if not 0 <= f < n)
        line, cell = table.lines[i], table.values[i]
        raise DataError(f"{path}: row {line}: fold {cell!r} is not in [0, {n}) for {n} rows")
    try:
        return table.ids, FoldAssignment(fold_of=np.array(fold_of), k=max(fold_of) + 1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class CvResult:
    """Per-fold scoreboards, their arithmetic-mean Total row, and the
    out-of-fold probabilities stitched back into dataset order."""

    folds: FoldAssignment
    fold_reports: tuple[MetricsReport, ...]
    average_total: tuple[float, float, float, float, float]
    oof_probs: np.ndarray


def cv_evaluate(
    learner,
    features: FeatureMatrix,
    truth: LabelMatrix,
    k: int,
    seed: int,
) -> CvResult:
    """Train on k-1 folds, score the holdout, average the fold Totals.

    ``learner`` is a classical LearnerSpec. Each fold trains an independent
    multi-output model on its own derived seed; a training failure is
    re-raised with the fold index attached. Holdout probabilities are
    binarized at 0.5 for the fold scoreboards.
    """
    from .classical import LearnerSpec, fit_multioutput, predict_multioutput

    if not isinstance(learner, LearnerSpec):
        raise TypeError("learner must be a canopy.classical.LearnerSpec")
    if features.n_samples != truth.n_samples:
        raise ValueError("features and truth disagree on the number of samples")
    _check_k(k, truth.n_samples)  # before spawn_seeds, whose cost grows with k

    split_seed, *fold_seeds = spawn_seeds(seed, k + 1)
    folds = stratified_kfold(truth, k, split_seed)
    reports: list[MetricsReport] = []
    oof = np.zeros((truth.n_samples, truth.n_labels))
    for f in range(k):
        tr, va = folds.train_indices(f), folds.fold_indices(f)
        try:
            model = fit_multioutput(learner, features.take(tr), truth.take(tr), seed=fold_seeds[f])
        except Exception as exc:
            raise RuntimeError(f"fold {f}: learner training failed: {exc}") from exc
        probs = predict_multioutput(model, features.take(va))
        oof[va] = probs.values
        pred = apply_thresholds(probs, np.full(truth.n_labels, 0.5))
        reports.append(report(pred, truth.take(va)))

    totals = np.array([r.total for r in reports])
    average_total = tuple(float(x) for x in totals.mean(axis=0))
    return CvResult(
        folds=folds,
        fold_reports=tuple(reports),
        average_total=average_total,
        oof_probs=oof,
    )
