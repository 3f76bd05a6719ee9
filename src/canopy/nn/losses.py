"""Losses on raw logits, paired with the matching output head.

Three kinds:

* ``bce`` - sigmoid head, mean binary cross-entropy over all label cells;
* ``softmax_ce`` - softmax head, mean categorical cross-entropy per sample;
* ``hybrid`` - softmax cross-entropy over the first ``weather_count``
  columns (mutually exclusive labels, truth one-hot there) plus mean BCE
  over the remaining columns; the two terms add.

Losses and gradients start from ``predict_head``'s probabilities, clamped to
[1e-12, 1 - 1e-12] inside the logs only: the gradients are the unclamped loss's.
"""

from __future__ import annotations

import numpy as np

from .activations import sigmoid, softmax

CLAMP = 1e-12


def _clamped_log(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(clip(p, CLAMP, 1 - CLAMP)), written into ``out`` (``p`` itself may
    be passed) or a new array."""
    q = np.maximum(p, CLAMP, out=out)
    np.minimum(q, 1.0 - CLAMP, out=q)
    return np.log(q, out=q)


def _bce(p: np.ndarray, truth: np.ndarray) -> float:
    """-(t log p + (1 - t) log(1 - p)).sum() / cells, built in place in that order."""
    terms = _clamped_log(p)
    terms *= truth
    negative = np.subtract(1.0, p)
    _clamped_log(negative, out=negative)
    negative *= 1.0 - truth
    terms += negative
    return float(-terms.sum() / truth.size)


def _softmax_ce(p: np.ndarray, truth: np.ndarray) -> float:
    if not np.allclose(truth.sum(axis=1), 1.0):
        raise ValueError("softmax cross-entropy requires one-hot truth rows")
    return float(-(truth * _clamped_log(p)).sum() / truth.shape[0])


def check_head(kind: str, weather_count: int, width: int) -> None:
    """The one check of a loss kind and of the hybrid head's weather block:
    ``1 <= weather_count < width`` softmax columns, so at least one sigmoid
    column follows them. Other heads ignore ``weather_count``."""
    if kind not in ("bce", "softmax_ce", "hybrid"):
        raise ValueError(f"unknown loss kind {kind!r}")
    if kind == "hybrid" and not 1 <= weather_count < width:
        raise ValueError(
            f"hybrid head needs 1 <= weather_count < {width} (its width), got {weather_count}"
        )


def predict_head(kind: str, logits: np.ndarray, weather_count: int = 0) -> np.ndarray:
    """Map logits to probabilities with the head matching the loss kind."""
    logits = np.asarray(logits, dtype=np.float64)
    check_head(kind, weather_count, logits.shape[-1])
    if kind == "bce":
        return sigmoid(logits)
    if kind == "softmax_ce":
        return softmax(logits)
    return np.concatenate(
        [softmax(logits[:, :weather_count]), sigmoid(logits[:, weather_count:])], axis=1
    )


def head_loss(kind: str, probs: np.ndarray, truth: np.ndarray, weather_count: int = 0) -> float:
    """The loss of ``predict_head``'s ``probs`` against ``truth``; ``probs`` is not written."""
    if kind == "bce":
        return _bce(probs, truth)
    if kind == "softmax_ce":
        return _softmax_ce(probs, truth)
    wc = weather_count
    return _softmax_ce(probs[:, :wc], truth[:, :wc]) + _bce(probs[:, wc:], truth[:, wc:])


def loss_and_grad(
    kind: str, logits: np.ndarray, truth: np.ndarray, weather_count: int = 0
) -> tuple[float, np.ndarray]:
    """Return (scalar loss, dloss/dlogits) for a batch: ``p - t`` over the
    rows in softmax columns, over the cells in sigmoid columns."""
    logits = np.asarray(logits, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if logits.shape != truth.shape:
        raise ValueError(f"logits {logits.shape} and truth {truth.shape} differ")
    p = predict_head(kind, logits, weather_count)
    loss = head_loss(kind, p, truth, weather_count)
    p -= truth
    if kind == "hybrid":
        p[:, :weather_count] /= len(truth)
        p[:, weather_count:] /= truth[:, weather_count:].size
    else:
        p /= len(truth) if kind == "softmax_ce" else truth.size
    return loss, p
