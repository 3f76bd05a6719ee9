"""Brute-force oracle for canopy.thresholds: one rescoring per candidate.

This is the threshold code canopy shipped before the sorted sweeps:
``pr_curve`` and per-class mode re-threshold the column and recount for
every candidate cutoff, coordinate mode rescores the whole prediction at
every candidate, and both F-beta helpers compute the counts form
``(1+b²)tp / ((1+b²)tp + fp + b²fn)`` inline. It is the oracle for the
library's sorted runs of equal scores, from which ``pr_curve``, per-class
mode and coordinate mode all read their candidates; coordinate mode
rescores exactly only the candidates near its approximate maximum. The
oracle's candidates come from ``np.unique``, which may give a run of
zeros as -0.0, while the library writes every zero cutoff as +0.0. The
property tests in ``test_threshold_oracle.py`` require the library to
match it byte for byte once the oracle's zero cutoffs are made +0.0.
"""

from __future__ import annotations

import numpy as np

from canopy.data import LabelMatrix, ProbMatrix
from canopy.thresholds import PrCurve


def reference_pr_curve(scores, truth) -> PrCurve:
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth).astype(bool)
    n_pos = int(t.sum())
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


def _sample_fbeta_fast(pred: np.ndarray, truth: np.ndarray, beta: float) -> float:
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


def reference_optimize_thresholds(
    probs: ProbMatrix,
    truth: LabelMatrix,
    beta: float = 2.0,
    mode: str = "coordinate",
    max_passes: int = 20,
) -> tuple[np.ndarray, float]:
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
