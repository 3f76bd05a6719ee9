"""Elementwise activations and their derivatives."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(z):
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# name -> (forward, backward); backward(out, grad) backprops ``grad``
# through the activation given its forward OUTPUT
ACTIVATIONS = {
    "identity": (lambda x: np.asarray(x, dtype=np.float64), lambda out, grad: grad),
    "relu": (relu, lambda out, grad: grad * (out > 0)),
    "sigmoid": (sigmoid, lambda out, grad: grad * out * (1.0 - out)),
}


def activation_fns(name: str):
    """The (forward, backward) pair of activation ``name``."""
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]
