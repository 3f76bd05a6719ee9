"""Confusion counting and precision/recall/F-beta/accuracy under four
averaging schemes (macro, weighted, micro, sample), plus scoreboard-style
report generation.

Conventions, applied uniformly:

* any precision/recall/F ratio with a zero denominator evaluates to 0;
* per-class accuracy is (TP + TN) / n_samples for that class;
* the report's Total row uses sample averaging for P/R/F1/F2 and
  exact-match (subset) accuracy. Mean-of-F over samples is NOT the same
  number as F applied to mean-P and mean-R, so the Total F cells are not
  recomputable from the Total P/R cells; per-class rows are;
* beta must be a finite number > 0 whose ``(1 + beta**2) * 2**53`` is
  finite (``check_beta``).

F-beta has two forms that differ in the last bit on ~40% of small counts:
``fbeta`` from precision and recall, pinned by the tests' loop oracle and
the report digests, serves ``averaged`` and ``report``; ``fbeta_from_counts``
from TP/FP/FN, pinned by the tuning digests, serves threshold tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import FLOAT_FMT, LabelMatrix, frozen

SCHEMES = ("macro", "weighted", "micro", "sample")


def _as_binary(x) -> np.ndarray:
    """Accept a LabelMatrix or a 2-D 0/1 array; return a bool array."""
    if isinstance(x, LabelMatrix):
        return x.as_bool()
    return frozen(x, bool, "binary matrix", entries="binary")


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = _as_binary(pred), _as_binary(truth)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    if (
        isinstance(pred, LabelMatrix)
        and isinstance(truth, LabelMatrix)
        and pred.vocab != truth.vocab
    ):
        raise ValueError("pred and truth use different vocabularies")
    return p, t


@dataclass(frozen=True)
class ConfusionTable:
    """TP/FP/TN/FN count vectors, per-class or per-sample orientation."""

    orientation: str  # "per_class" | "per_sample"
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


def confusion(pred, truth, orientation: str = "per_class") -> ConfusionTable:
    """Exact integer confusion counts along the requested orientation."""
    p, t = _check_pair(pred, truth)
    if orientation not in ("per_class", "per_sample"):
        raise ValueError("orientation must be 'per_class' or 'per_sample'")
    return _counts(p, t, orientation)


def _counts(p: np.ndarray, t: np.ndarray, orientation: str) -> ConfusionTable:
    """:func:`confusion` of a checked pair of bool arrays."""
    axis = 0 if orientation == "per_class" else 1
    tp = (p & t).sum(axis=axis)
    fp = (p & ~t).sum(axis=axis)
    fn = (~p & t).sum(axis=axis)
    tn = (~p & ~t).sum(axis=axis)
    return ConfusionTable(orientation=orientation, tp=tp, fp=fp, tn=tn, fn=fn)


def check_beta(beta: float) -> float:
    """``beta`` itself when it is a finite number > 0 whose
    ``(1 + beta**2) * 2**53`` is finite, so that F-beta of counts up to 2**53
    is finite; ValueError otherwise."""
    try:  # float(): a numpy scalar's overflow would warn, a Python float's is inf
        small = math.isfinite(beta) and math.isfinite((1.0 + float(beta) * float(beta)) * 2.0**53)
    except OverflowError:  # an int too large for a float
        small = False
    if not (small and beta > 0):
        raise ValueError(f"beta must be a finite number > 0 and <= ~1.41e146, got {beta!r}")
    return beta


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with the 0-denominator-evaluates-to-0 rule."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def fbeta(precision, recall, beta: float):
    """F-beta = (1 + b^2) p r / (b^2 p + r); 0 wherever the denominator is 0.
    Elementwise over arrays; scalar precision and recall give a float."""
    b2 = check_beta(beta) * beta
    p = np.asarray(precision, dtype=np.float64)
    f = _ratio((1.0 + b2) * p * recall, b2 * p + recall)
    return float(f) if f.ndim == 0 else f


def fbeta_from_counts(tp, fp, fn, beta: float) -> np.ndarray:
    """F-beta = (1 + b^2) tp / ((1 + b^2) tp + fp + b^2 fn), elementwise over
    count arrays; 0 wherever the denominator is 0."""
    b2 = check_beta(beta) * beta
    num = (1.0 + b2) * np.asarray(tp)
    return _ratio(num, num + fp + b2 * fn)


def _prf_from_counts(tp, fp, fn, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = _ratio(tp, tp + fp)
    r = _ratio(tp, tp + fn)
    return p, r, fbeta(p, r, beta)


def _seq_sum(values: np.ndarray) -> float:
    # left-to-right accumulation: bit-identical to a plain loop/sum oracle,
    # unlike numpy reductions whose SIMD order varies; the leading 0.0 keeps
    # the loop's 0.0 + -0.0 == 0.0
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _seq_mean(values: np.ndarray) -> float:
    return _seq_sum(values) / len(values)


class AveragedScores(NamedTuple):
    precision: float
    recall: float
    fbeta: float


def averaged(
    pred,
    truth,
    scheme: str,
    beta: float = 2.0,
    class_weights: Sequence[float] | None = None,
) -> AveragedScores:
    """Precision/recall/F-beta aggregated under one of the four schemes.

    macro averages per-class scores equally; weighted uses caller-supplied
    class weights summing to 1; micro pools counts globally; sample computes
    the scores per instance from that instance's label-level counts and
    averages over instances.
    """
    check_beta(beta)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    p, t = _check_pair(pred, truth)

    c = _counts(p, t, "per_sample" if scheme == "sample" else "per_class")
    prec, rec, f = _prf_from_counts(c.tp, c.fp, c.fn, beta)

    if scheme in ("macro", "sample"):
        return AveragedScores(_seq_mean(prec), _seq_mean(rec), _seq_mean(f))
    if scheme == "weighted":
        if class_weights is None:
            raise ValueError("weighted scheme requires class_weights")
        w = np.asarray(class_weights, dtype=np.float64)
        if w.shape != (p.shape[1],):
            raise ValueError(f"class_weights must have length {p.shape[1]}")
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ValueError("class_weights must be finite and >= 0")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("class_weights must sum to 1 (tolerance 1e-9)")
        return AveragedScores(
            _seq_sum(w * prec), _seq_sum(w * rec), _seq_sum(w * f)
        )
    # micro: pool counts, then one ratio each; micro-F is F of the pooled p, r
    mp, mr, mf = _prf_from_counts(c.tp.sum(), c.fp.sum(), c.fn.sum(), beta)
    return AveragedScores(float(mp), float(mr), mf)


def sample_fbeta(pred, truth, beta: float = 2.0) -> float:
    """Sample-averaged F-beta, the primary score used for model selection."""
    return averaged(pred, truth, "sample", beta=beta).fbeta


def subset_accuracy(pred, truth) -> float:
    """Fraction of samples whose full predicted label vector is exact."""
    return _subset_accuracy(*_check_pair(pred, truth))


def _subset_accuracy(p: np.ndarray, t: np.ndarray) -> float:
    return float((p == t).all(axis=1).mean())


@dataclass(frozen=True)
class MetricsReport:
    """Per-class precision/recall/accuracy/F1/F2 rows plus a Total row.

    Total carries sample-averaged P/R/F1/F2 and exact-match accuracy.
    """

    class_names: tuple[str, ...]
    precision: np.ndarray
    recall: np.ndarray
    accuracy: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    total: tuple[float, float, float, float, float]  # (P, R, acc, F1, F2)

    HEADER = ("Class", "Precision", "Recall", "Accuracy", "F1 Score", "F2 Score")

    def rows(self):
        """Yield (name, precision, recall, accuracy, f1, f2), Total last."""
        for i, name in enumerate(self.class_names):
            yield (
                name,
                float(self.precision[i]),
                float(self.recall[i]),
                float(self.accuracy[i]),
                float(self.f1[i]),
                float(self.f2[i]),
            )
        yield ("Total",) + self.total

    def to_csv_text(self) -> str:
        return score_csv(self.HEADER[0].lower(), self.rows())

    def to_table_text(self) -> str:
        name_w = max(len(self.HEADER[0]), max(len(r[0]) for r in self.rows()))
        col_w = max(len(h) for h in self.HEADER[1:])
        lines = [
            self.HEADER[0].ljust(name_w)
            + "".join("  " + h.rjust(col_w) for h in self.HEADER[1:])
        ]
        for name, *vals in self.rows():
            lines.append(
                name.ljust(name_w)
                + "".join("  " + (FLOAT_FMT % v).rjust(col_w) for v in vals)
            )
        return "\n".join(lines) + "\n"


def score_csv(key: str, rows) -> str:
    """CSV text of scoreboard rows under a header of ``key`` and the metric
    columns (``precision``, ..., ``f2_score``); scores print as ``FLOAT_FMT``."""
    lines = [[key, *(h.lower().replace(" ", "_") for h in MetricsReport.HEADER[1:])]]
    lines += [[name, *(FLOAT_FMT % v for v in vals)] for name, *vals in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def report(pred: LabelMatrix, truth: LabelMatrix) -> MetricsReport:
    """Build the per-class + Total scoreboard for a hard prediction."""
    p, t = _check_pair(pred, truth)
    c = _counts(p, t, "per_class")
    prec, rec, f1 = _prf_from_counts(c.tp, c.fp, c.fn, 1.0)
    f2 = fbeta(prec, rec, 2.0)
    acc = _ratio(c.tp + c.tn, c.tp + c.fp + c.tn + c.fn)

    # the Total row is sample-averaged: one count per sample serves F1 and F2
    s = _counts(p, t, "per_sample")
    sp, sr, sf1 = _prf_from_counts(s.tp, s.fp, s.fn, 1.0)
    sf2 = fbeta(sp, sr, 2.0)
    total = (_seq_mean(sp), _seq_mean(sr), _subset_accuracy(p, t), _seq_mean(sf1), _seq_mean(sf2))

    if isinstance(truth, LabelMatrix):
        names = truth.vocab.names
    elif isinstance(pred, LabelMatrix):
        names = pred.vocab.names
    else:
        names = tuple(f"label_{j}" for j in range(p.shape[1]))
    return MetricsReport(
        class_names=tuple(names),
        precision=prec,
        recall=rec,
        accuracy=acc,
        f1=f1,
        f2=f2,
        total=total,
    )
