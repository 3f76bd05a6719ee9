"""Precision-recall sweeps and per-class decision-threshold optimization.

The classification rule is inclusive everywhere: score >= cutoff means
positive, so a returned cutoff can always be one of the observed scores.
Candidate cutoffs are counted with one sort per label (``_sweep``), and
every tuned score is the counts form of F-beta, ``metrics.fbeta_from_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, LabelMatrix, LabelVocabulary, ProbMatrix, format_rows, read_table
from .metrics import check_beta, fbeta_from_counts


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


def _sweep(scores: np.ndarray, truth: np.ndarray):
    """The distinct scores in ascending order, each with the TP and the
    predicted-positive count of ``score >= cutoff`` at that cutoff."""
    order = np.argsort(scores)
    ranked = scores[order]
    cuts = np.unique(ranked)
    below = np.searchsorted(ranked, cuts, side="left")  # samples scoring under each cutoff
    positives_below = np.concatenate(([0], np.cumsum(truth[order])))
    return cuts, positives_below[-1] - positives_below[below], len(scores) - below


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

    cuts, tp, pp = _sweep(s, t)
    if cuts[0] > 0.0:  # the sentinel 0 predicts what the lowest score does
        cuts, tp, pp = np.r_[0.0, cuts], np.r_[tp[0], tp], np.r_[pp[0], pp]
    return PrCurve(thresholds=cuts, precision=tp / pp, recall=tp / n_pos, positive_count=n_pos)


def _cutoffs(cutoffs, n_labels: int) -> np.ndarray:
    """``cutoffs`` flattened to float64, refused unless one per label."""
    th = np.asarray(cutoffs, dtype=np.float64).reshape(-1)
    if th.shape[0] != n_labels:
        raise ValueError(f"expected {n_labels} cutoffs, got {th.shape[0]}")
    return th


def apply_thresholds(probs: ProbMatrix, cutoffs) -> LabelMatrix:
    """Binarize: entry = 1 iff prob >= that label's cutoff."""
    th = _cutoffs(cutoffs, probs.n_labels)
    values = (probs.values >= th[None, :]).astype(np.int8)
    return LabelMatrix(values=values, vocab=probs.vocab)


def optimize_thresholds(
    probs: ProbMatrix,
    truth: LabelMatrix,
    beta: float = 2.0,
    mode: str = "coordinate",
) -> tuple[np.ndarray, float]:
    """Choose per-class cutoffs maximizing F-beta; returns (cutoffs, score).

    coordinate mode runs cyclic coordinate ascent on the sample-averaged
    F-beta, sweeping each class over its distinct observed scores while the
    others stay fixed, until a full pass improves by <= 1e-12 or 20 passes
    have run. Per-row counts are carried across classes, so each candidate
    cutoff costs O(n) for n samples, not O(n * classes). per-class mode
    maximizes each class's own binary F-beta independently, scoring all of
    a class's cutoffs from one sorted sweep. Ties always break toward the
    smallest cutoff. Classes without a single positive keep the default
    cutoff 0.5.

    The returned score is the objective the mode optimizes: sample-averaged
    F-beta for coordinate mode, mean per-class F-beta for per-class mode.
    Either way it is never below the same objective at uniform 0.5 cutoffs.
    """
    check_beta(beta)
    if mode not in ("coordinate", "per-class"):
        raise ValueError("mode must be 'coordinate' or 'per-class'")
    if probs.n_samples == 0:
        raise ValueError("cannot optimize thresholds on an empty dataset")
    if probs.values.shape != truth.values.shape:
        raise ValueError("probs and truth shapes differ")
    if probs.vocab != truth.vocab:
        raise ValueError("pred and truth use different vocabularies")

    scores = probs.values
    y = truth.as_bool()
    n_labels = scores.shape[1]
    cutoffs = np.full(n_labels, 0.5)
    optimizable = [j for j in range(n_labels) if y[:, j].any()]

    if mode == "per-class":
        best = np.zeros(n_labels)  # a class without positives scores 0
        for j in optimizable:
            cuts, tp, pp = _sweep(scores[:, j], y[:, j])
            # the lowest cutoff predicts every sample, so tp[0] is the positive count
            f = fbeta_from_counts(tp, pp - tp, tp[0] - tp, beta)
            i = int(np.argmax(f))  # the first maximum is the smallest cutoff
            cutoffs[j], best[j] = cuts[i], f[i]
        return cutoffs, float(best.mean())

    # per-row true, predicted and truth positives, carried across labels
    candidates = {j: np.unique(scores[:, j]) for j in optimizable}
    pred = scores >= cutoffs[None, :]
    tp, pp, pos = (pred & y).sum(axis=1), pred.sum(axis=1), y.sum(axis=1)
    current = float(fbeta_from_counts(tp, pp - tp, pos - tp, beta).mean())
    for _ in range(20):
        improved = False
        for j in optimizable:
            best_s, best_t = current, cutoffs[j]
            col, y_j = scores[:, j], y[:, j]
            on = col >= best_t
            tp_o, pp_o = tp - (on & y_j), pp - on  # every label's counts but j's
            for th in candidates[j]:
                on = col >= th
                t = tp_o + (on & y_j)
                s = float(fbeta_from_counts(t, pp_o + on - t, pos - t, beta).mean())
                if s > best_s or (s == best_s and th < best_t):
                    best_s, best_t = s, float(th)
            on = col >= best_t
            tp, pp = tp_o + (on & y_j), pp_o + on
            if best_s > current + 1e-12:
                improved = True
            current = best_s
            cutoffs[j] = best_t
        if not improved:
            break
    return cutoffs, current


def save_thresholds(path: str | Path, vocab: LabelVocabulary, cutoffs) -> None:
    """Two-column CSV `label,threshold`, each cutoff exactly ``FLOAT_FMT % t``."""
    th = _cutoffs(cutoffs, len(vocab))
    bad = np.flatnonzero(~((th >= 0.0) & (th <= 1.0)))  # NaN fails both
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"cutoff {float(th[j])!r} for label {vocab.names[j]!r} is not a finite number in [0, 1]"
        )
    with open(path, "wb") as fh:
        fh.write(b"label,threshold\n" + format_rows(vocab.names, th[:, None]))


def load_thresholds(path: str | Path, vocab: LabelVocabulary) -> np.ndarray:
    """Read a `label,threshold` CSV back into vocabulary order."""
    table = read_table(path, ("label", "threshold"), width=2, bounds=(0.0, 1.0))
    cutoffs = dict(zip(table.ids, table.values[:, 0]))
    try:
        return np.array([cutoffs[name] for name in vocab.names])
    except KeyError as exc:
        raise DataError(f"{path}: missing threshold for label {exc.args[0]!r}") from None
