"""Precision-recall sweeps and per-class decision-threshold optimization.

The classification rule is inclusive everywhere: score >= cutoff means
positive, so a returned cutoff can always be one of the observed scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FLOAT_FMT, DataError, LabelMatrix, LabelVocabulary, ProbMatrix, read_table


@dataclass(frozen=True)
class PrCurve:
    """One (threshold, precision, recall) point per candidate threshold.

    Thresholds are the distinct observed scores plus a sentinel 0 and are
    strictly increasing; recall is non-increasing along the curve.
    """

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    positive_count: int


def pr_curve(scores, truth) -> PrCurve:
    """Sweep all candidate thresholds for one label column."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth).astype(bool)
    if s.ndim != 1 or t.ndim != 1 or s.shape != t.shape:
        raise ValueError("scores and truth must be 1-D arrays of equal length")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")
    n_pos = int(t.sum())
    if n_pos == 0:
        raise ValueError("pr_curve requires at least one positive sample")

    cands = np.unique(s)
    if cands[0] > 0.0:
        cands = np.concatenate(([0.0], cands))
    prec = np.empty_like(cands)
    rec = np.empty_like(cands)
    for i, th in enumerate(cands):
        pred = s >= th
        tp = int((pred & t).sum())
        pp = int(pred.sum())
        prec[i] = tp / pp if pp else 0.0
        rec[i] = tp / n_pos
    return PrCurve(thresholds=cands, precision=prec, recall=rec, positive_count=n_pos)


def apply_thresholds(probs: ProbMatrix, cutoffs) -> LabelMatrix:
    """Binarize: entry = 1 iff prob >= that label's cutoff."""
    th = np.asarray(cutoffs, dtype=np.float64).reshape(-1)
    if th.shape[0] != probs.n_labels:
        raise ValueError(f"expected {probs.n_labels} cutoffs, got {th.shape[0]}")
    values = (probs.values >= th[None, :]).astype(np.int8)
    return LabelMatrix(values=values, vocab=probs.vocab)


def _sample_fbeta_fast(pred: np.ndarray, truth: np.ndarray, beta: float) -> float:
    # hot loop of the coordinate sweep; bool-array twin of metrics.sample_fbeta
    b2 = beta * beta
    tp = (pred & truth).sum(axis=1)
    fp = (pred & ~truth).sum(axis=1)
    fn = (~pred & truth).sum(axis=1)
    num = (1.0 + b2) * tp
    den = (1.0 + b2) * tp + fp + b2 * fn
    per_sample = np.divide(num, den, out=np.zeros(len(num)), where=den > 0)
    return float(per_sample.mean())


def _class_fbeta(pred: np.ndarray, truth: np.ndarray, beta: float) -> float:
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    b2 = beta * beta
    den = (1.0 + b2) * tp + fp + b2 * fn
    return (1.0 + b2) * tp / den if den else 0.0


def optimize_thresholds(
    probs: ProbMatrix,
    truth: LabelMatrix,
    beta: float = 2.0,
    mode: str = "coordinate",
    max_passes: int = 20,
) -> tuple[np.ndarray, float]:
    """Choose per-class cutoffs maximizing F-beta; returns (cutoffs, score).

    coordinate mode runs cyclic coordinate ascent on the sample-averaged
    F-beta, sweeping each class over its distinct observed scores while the
    others stay fixed, until a full pass improves by <= 1e-12 (at most
    ``max_passes`` passes). per-class mode maximizes each class's own binary
    F-beta independently. Ties always break toward the smallest cutoff.
    Classes without a single positive keep the default cutoff 0.5.

    The returned score is the objective the mode optimizes: sample-averaged
    F-beta for coordinate mode, mean per-class F-beta for per-class mode.
    Either way it is never below the same objective at uniform 0.5 cutoffs.
    """
    if mode not in ("coordinate", "per-class"):
        raise ValueError("mode must be 'coordinate' or 'per-class'")
    if probs.n_samples == 0:
        raise ValueError("cannot optimize thresholds on an empty dataset")
    if probs.values.shape != truth.values.shape:
        raise ValueError("probs and truth shapes differ")

    scores = probs.values
    y = truth.as_bool()
    n_labels = scores.shape[1]
    cutoffs = np.full(n_labels, 0.5)
    optimizable = [j for j in range(n_labels) if y[:, j].any()]
    candidates = {j: np.unique(scores[:, j]) for j in optimizable}

    if mode == "per-class":
        for j in optimizable:
            best_s, best_t = -1.0, 0.5
            for th in candidates[j]:
                s = _class_fbeta(scores[:, j] >= th, y[:, j], beta)
                if s > best_s:
                    best_s, best_t = s, float(th)
            cutoffs[j] = best_t
        per_class = [
            _class_fbeta(scores[:, j] >= cutoffs[j], y[:, j], beta)
            for j in range(n_labels)
        ]
        return cutoffs, float(np.mean(per_class))

    pred = scores >= cutoffs[None, :]
    current = _sample_fbeta_fast(pred, y, beta)
    for _ in range(max_passes):
        improved = False
        for j in optimizable:
            best_s, best_t = current, cutoffs[j]
            col = scores[:, j]
            for th in candidates[j]:
                pred[:, j] = col >= th
                s = _sample_fbeta_fast(pred, y, beta)
                if s > best_s or (s == best_s and th < best_t):
                    best_s, best_t = s, float(th)
            pred[:, j] = col >= best_t
            if best_s > current + 1e-12:
                improved = True
            current = best_s
            cutoffs[j] = best_t
        if not improved:
            break
    return cutoffs, current


def save_thresholds(path: str | Path, vocab: LabelVocabulary, cutoffs) -> None:
    """Two-column CSV `label,threshold`."""
    th = np.asarray(cutoffs, dtype=np.float64).reshape(-1)
    if th.shape[0] != len(vocab):
        raise ValueError(f"expected {len(vocab)} cutoffs, got {th.shape[0]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label,threshold\n")
        for name, t in zip(vocab.names, th):
            fh.write(f"{name},{FLOAT_FMT % t}\n")


def load_thresholds(path: str | Path, vocab: LabelVocabulary) -> np.ndarray:
    """Read a `label,threshold` CSV back into vocabulary order."""
    table = read_table(path, ("label", "threshold"), width=2, bounds=(0.0, 1.0))
    cutoffs = dict(zip(table.ids, table.values[:, 0]))
    try:
        return np.array([cutoffs[name] for name in vocab.names])
    except KeyError as exc:
        raise DataError(f"{path}: missing threshold for label {exc.args[0]!r}") from None
