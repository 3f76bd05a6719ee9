"""Losses on raw logits, paired with the matching output head.

Three kinds:

* ``bce`` - sigmoid head, mean binary cross-entropy over all label cells;
* ``softmax_ce`` - softmax head, mean categorical cross-entropy per sample;
* ``hybrid`` - softmax cross-entropy over the first ``weather_count``
  columns (mutually exclusive labels, truth one-hot there) plus mean BCE
  over the remaining columns; the two terms add.

Probabilities are clamped to [1e-12, 1 - 1e-12] inside the logs only, so
the returned gradients are those of the unclamped loss.
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


def _bce(logits: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    """-(t log p + (1 - t) log(1 - p)).sum() / cells and (p - t) / cells,
    built in place in that order."""
    p = sigmoid(logits)
    n_cells = truth.size
    terms = _clamped_log(p)
    terms *= truth
    negative = np.subtract(1.0, p)
    _clamped_log(negative, out=negative)
    negative *= 1.0 - truth
    terms += negative
    p -= truth
    p /= n_cells
    return float(-terms.sum() / n_cells), p


def _softmax_ce(logits: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    rows = truth.sum(axis=1)
    if not np.allclose(rows, 1.0):
        raise ValueError("softmax cross-entropy requires one-hot truth rows")
    p = softmax(logits)
    n = truth.shape[0]
    loss = -(truth * _clamped_log(p)).sum() / n
    return float(loss), (p - truth) / n


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


def loss_and_grad(
    kind: str, logits: np.ndarray, truth: np.ndarray, weather_count: int = 0
) -> tuple[float, np.ndarray]:
    """Return (scalar loss, dloss/dlogits) for a batch."""
    logits = np.asarray(logits, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if logits.shape != truth.shape:
        raise ValueError(f"logits {logits.shape} and truth {truth.shape} differ")
    check_head(kind, weather_count, logits.shape[-1])
    if kind == "bce":
        return _bce(logits, truth)
    if kind == "softmax_ce":
        return _softmax_ce(logits, truth)
    wl, wg = _softmax_ce(logits[:, :weather_count], truth[:, :weather_count])
    gl, gg = _bce(logits[:, weather_count:], truth[:, weather_count:])
    return wl + gl, np.concatenate([wg, gg], axis=1)


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
