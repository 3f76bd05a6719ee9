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
    FOLD_HEADER,
    DataError,
    FeatureMatrix,
    LabelMatrix,
    _Rows,
    check_int,
    frozen,
    make_rng,
    read_table,
    spawn_seeds,
    written_ids,
)
from .metrics import MetricsReport, report
from .thresholds import DEFAULT_CUTOFF, apply_thresholds


@dataclass(frozen=True)
class FoldAssignment(_Rows):
    """Per-sample fold index in [0, k); folds partition the samples."""

    _rows = "fold_of"
    fold_of: np.ndarray
    k: int

    def __post_init__(self):
        f = frozen(self.fold_of, np.int64, "fold_of", ndim=1)
        object.__setattr__(self, "k", _check_k(self.k, f.size))  # before bincount sizes by k
        if f.min() < 0 or f.max() >= self.k:
            raise ValueError("fold indices must lie in [0, k)")
        counts = np.bincount(f, minlength=self.k)
        if (counts == 0).any():
            raise ValueError("every fold must be non-empty")
        object.__setattr__(self, "fold_of", f)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of != fold)[0]


def _check_k(k: int, n: int) -> int:
    k = check_int("k", k, 2)
    if k > n:
        raise ValueError(f"k={k} exceeds the number of samples ({n})")
    return k


def stratified_kfold(truth: LabelMatrix, k: int, seed: int) -> FoldAssignment:
    """Iterative stratification; deterministic for a fixed seed.

    Processing order: the label with the fewest remaining positives first;
    each of its unassigned samples goes to the fold with the greatest
    remaining demand for that label, ties broken by the greatest overall
    remaining capacity and then by a PRNG draw.

    No fold holds more than ceil(n / k) samples. The sizes are within one of
    each other only when n mod k is 0 or k - 1; otherwise the folds filled
    last can fall further short (19 rows in 9 folds can give sizes 1 to 3).
    """
    n = truth.n_samples
    k = _check_k(k, n)
    rng = make_rng(seed)
    y = truth.as_bool()
    # a label above 50% prevalence is easier to balance through its rare
    # complement (rare labels are processed first and spread near-exactly),
    # so stratify those complements as extra virtual labels
    dense = np.nonzero(y.mean(axis=0) > 0.5)[0]
    if dense.size:
        y = np.concatenate([y, ~y[:, dense]], axis=1)

    # A fold's demand for a label starts at (positives / k) and its capacity
    # at n / k, the same floats for every fold, and each pick subtracts 1.0,
    # which strictly lowers a float of that size. So the greatest demand is
    # the fewest positives of the label taken, the greatest capacity the
    # fewest samples taken, and a fold has capacity left while it holds fewer
    # than ceil(n / k) samples. With that quota some fold is open while
    # samples remain.
    taken = np.zeros((y.shape[1], k), dtype=np.int64)  # [label, fold]
    size = np.zeros(k, dtype=np.int64)
    quota = -(-n // k)
    fold_of = np.full(n, -1, dtype=np.int64)
    remaining_pos = y.sum(axis=0)
    labels_per_sample = y.sum(axis=1)

    def assign(samples: np.ndarray, label_taken: np.ndarray | None) -> None:
        chosen = _deal(label_taken, size, quota, samples.size, rng)
        fold_of[samples] = chosen
        size[:] += np.bincount(chosen, minlength=k)
        rows, labels = np.nonzero(y[samples])
        taken[:] += np.bincount(labels * k + chosen[rows], minlength=taken.size).reshape(-1, k)
        remaining_pos[:] -= np.bincount(labels, minlength=y.shape[1])

    while True:
        active = np.nonzero(remaining_pos > 0)[0]
        if active.size == 0:
            break
        label = int(active[np.argmin(remaining_pos[active])])
        members = np.nonzero(y[:, label] & (fold_of < 0))[0]
        # most-constrained samples first: their many demand counters are
        # still informative early in the sweep
        members = members[np.argsort(-labels_per_sample[members], kind="stable")]
        assign(members, taken[label])

    assign(np.nonzero(fold_of < 0)[0], None)  # samples with no positive labels
    return FoldAssignment(fold_of=fold_of, k=k)


def _deal(taken: np.ndarray | None, size: np.ndarray, quota: int, m: int, rng) -> np.ndarray:
    """The folds of the next ``m`` picks for one label, one pick at a time:
    the open fold with the fewest positives of the label ``taken`` (skipped
    for samples with no label, ``taken=None``), then the fewest ``size``,
    then a PRNG draw among the tied.

    A pick raises its fold's key ``(taken, size)`` by (1, 1), so fold f
    offers the keys ``(taken[f] + j, size[f] + j)`` for ``j`` below its room
    ``quota - size[f]``, and the picks are the ``m`` smallest keys of all
    folds merged. Only a run of equal keys (one per fold in it) needs draws:
    each pick from it draws among the folds of the run not yet picked, in
    fold order, until one fold is left.
    """
    room = np.minimum(quota - size, m)
    fold = np.repeat(np.arange(size.size), room)
    j = _ramps(room)
    key = size[fold] + j
    if taken is not None:
        key += (taken[fold] + j) * (quota + 1)
    order = np.argsort(key, kind="stable")  # merges the k ascending runs
    fold, key = fold[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], key.size)
    tied = (ends - starts > 1) & (starts < m)
    starts, ends = starts[tied], ends[tied]
    # run sizes r, r - 1, ... down to 2, or fewer where the batch ends
    # inside the run; one call with an array of bounds draws what one call
    # per bound would
    n_draws = np.minimum(ends - 1, m) - starts
    bounds = np.repeat(ends - starts, n_draws) - _ramps(n_draws)
    draws = iter(rng.integers(bounds).tolist())
    chosen = fold[:m]
    for a, b in zip(starts.tolist(), ends.tolist()):
        run = fold[a:b].tolist()
        for pos in range(a, min(b, m)):
            chosen[pos] = run.pop(next(draws)) if len(run) > 1 else run[0]
    return chosen


def _ramps(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def save_folds(path: str | Path, ids: Sequence[str], folds: FoldAssignment) -> None:
    """CSV with header FOLD_HEADER."""
    keys = written_ids(ids, folds.n_samples)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(FOLD_HEADER) + "\n")
        fh.writelines(f"{key},{f}\n" for key, f in zip(keys, folds.fold_of.tolist()))


def load_folds(path: str | Path) -> tuple[list[str], FoldAssignment]:
    table = read_table(path, FOLD_HEADER, width=2)
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
    binarized at ``DEFAULT_CUTOFF`` for the fold scoreboards.
    """
    from .classical import LearnerSpec, fit_multioutput, predict_multioutput

    if not isinstance(learner, LearnerSpec):
        raise TypeError("learner must be a canopy.classical.LearnerSpec")
    if features.n_samples != truth.n_samples:
        raise ValueError("features and truth disagree on the number of samples")
    k = _check_k(k, truth.n_samples)  # before spawn_seeds, whose cost grows with k

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
        pred = apply_thresholds(probs, np.full(truth.n_labels, DEFAULT_CUTOFF))
        reports.append(report(pred, truth.take(va)))

    totals = np.array([r.total for r in reports])
    average_total = tuple(float(x) for x in totals.mean(axis=0))
    return CvResult(
        folds=folds,
        fold_reports=tuple(reports),
        average_total=average_total,
        oof_probs=oof,
    )
