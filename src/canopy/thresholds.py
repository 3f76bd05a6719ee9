"""Precision-recall sweeps and per-class decision-threshold optimization.

The classification rule is inclusive everywhere: score >= cutoff means
positive, so a returned cutoff can always be one of the observed scores.
Each cutoff search sorts a label's column once (``_runs``) and takes its
distinct scores as the candidates, a zero as +0.0. Every tuned score is the
counts form of F-beta, ``metrics.fbeta_from_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (THRESHOLD_HEADER, DataError, LabelMatrix, LabelVocabulary, ProbMatrix,
                   format_rows, read_table, write_output)
from .metrics import check_beta, fbeta_from_counts

DEFAULT_CUTOFF = 0.5  # the decision cutoff wherever none is tuned or given
TUNING_MODES = ("coordinate", "per-class")  # optimize_thresholds' modes


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


def _runs(col: np.ndarray):
    """One column's runs of equal scores, highest first: the row order (one
    argsort, read from the top), each run's last position in it, and each
    run's score with a zero written as +0.0."""
    order = np.argsort(col)[::-1]
    ranked = col[order]
    last = np.flatnonzero(np.r_[ranked[1:] != ranked[:-1], True])
    return order, last, ranked[last] + 0.0  # -0.0 + 0.0 is +0.0


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

    order, last, cuts = _runs(s)
    cuts, tp, pp = cuts[::-1], np.cumsum(t[order])[last][::-1], last[::-1] + 1
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
    have run. Per-row counts are carried across classes, so a class visit
    costs O(n) for n samples: each row's F with the class on and off, and
    every cutoff's approximate score from one cumulative sum in sorted
    order. Only the cutoffs within rounding distance of the best are
    rescored exactly, at O(n) each, so the result is the exact maximum.
    per-class mode maximizes each class's own binary F-beta independently,
    scoring all of a class's cutoffs from one cumulative sum. Either mode
    sorts each class's column once per call, O(n log n). Ties always break
    toward the smallest cutoff, and a zero cutoff is always +0.0. Classes
    without a single positive keep ``DEFAULT_CUTOFF``.

    The returned score is the objective the mode optimizes: sample-averaged
    F-beta for coordinate mode, mean per-class F-beta for per-class mode.
    Either way it is never below the same objective at ``DEFAULT_CUTOFF``.
    """
    check_beta(beta)
    if mode not in TUNING_MODES:
        raise ValueError(f"mode must be one of {TUNING_MODES}")
    if probs.n_samples == 0:
        raise ValueError("cannot optimize thresholds on an empty dataset")
    if probs.values.shape != truth.values.shape:
        raise ValueError("probs and truth shapes differ")
    if probs.vocab != truth.vocab:
        raise ValueError("pred and truth use different vocabularies")

    scores = probs.values
    y = truth.as_bool()
    n_labels = scores.shape[1]
    cutoffs = np.full(n_labels, DEFAULT_CUTOFF)
    optimizable = [j for j in range(n_labels) if y[:, j].any()]

    if mode == "per-class":
        best = np.zeros(n_labels)  # a class without positives scores 0
        for j in optimizable:
            order, last, cuts = _runs(scores[:, j])
            tp = np.cumsum(y[order, j])[last]
            # the lowest cutoff predicts every sample, so tp[-1] is the positive count
            f = fbeta_from_counts(tp, last + 1 - tp, tp[-1] - tp, beta)
            i = len(f) - 1 - int(np.argmax(f[::-1]))  # the last maximum is the smallest cutoff
            cutoffs[j], best[j] = cuts[i], f[i]
        return cutoffs, float(best.mean())

    # per-row true, predicted and truth positives, carried across labels
    runs = {j: _runs(scores[:, j]) for j in optimizable}
    pred = scores >= cutoffs[None, :]
    tp, pp, pos = (pred & y).sum(axis=1), pred.sum(axis=1), y.sum(axis=1)
    current = float(fbeta_from_counts(tp, pp - tp, pos - tp, beta).mean())
    n = len(scores)
    # An approximate objective below is two sums of n terms in [-1, 1] over n,
    # each off by at most ~n·ε, and an exact score is a mean off by ~n·ε:
    # they differ by <= ~3n·ε, so a candidate whose approximate objective is
    # over 6n·ε below the largest cannot be the exact maximum.
    band = 1e-9 + 8 * n * np.finfo(np.float64).eps
    for _ in range(20):
        improved = False
        for j in optimizable:
            col, y_j, (rows, last, cuts) = scores[:, j], y[:, j], runs[j]
            on = col >= cutoffs[j]
            tp_o, pp_o = tp - (on & y_j), pp - on  # every label's counts but j's
            t1 = tp_o + y_j
            f_off = fbeta_from_counts(tp_o, pp_o - tp_o, pos - tp_o, beta)
            f_on = fbeta_from_counts(t1, pp_o + 1 - t1, pos - t1, beta)
            gain = (f_on - f_off)[rows]
            approx = (f_off.sum() + np.cumsum(gain)[last]) / n
            # a cutoff whose next lower score changes no row's F scores the
            # same bits as that lower cutoff, and the tie goes to the lower one
            moved = np.cumsum(gain != 0.0)[last]
            near = (approx >= approx.max() - band) & np.r_[moved[1:] != moved[:-1], True]
            best_s, best_t = current, cutoffs[j]
            for th in cuts[near][::-1]:
                s = float(np.where(col >= th, f_on, f_off).mean())
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
    """Two-column CSV with header THRESHOLD_HEADER, each cutoff exactly ``FLOAT_FMT % t``."""
    th = _cutoffs(cutoffs, len(vocab))
    bad = np.flatnonzero(~((th >= 0.0) & (th <= 1.0)))  # NaN fails both
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"cutoff {float(th[j])!r} for label {vocab.names[j]!r} is not a finite number in [0, 1]"
        )
    header = (",".join(THRESHOLD_HEADER) + "\n").encode()
    write_output(path, [header, format_rows(vocab.names, th[:, None])])


def load_thresholds(path: str | Path, vocab: LabelVocabulary) -> np.ndarray:
    """Read a THRESHOLD_HEADER CSV back into vocabulary order."""
    table = read_table(path, THRESHOLD_HEADER, width=2, bounds=(0.0, 1.0))
    cutoffs = dict(zip(table.ids, table.values[:, 0]))
    try:
        return np.array([cutoffs[name] for name in vocab.names])
    except KeyError as exc:
        raise DataError(f"{path}: missing threshold for label {exc.args[0]!r}") from None
