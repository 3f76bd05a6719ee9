"""Oracle for canopy.nn's optimizer step and sigmoid: the code canopy shipped
before the network's parameters became one vector.

``ReferenceAdam`` keeps a list of moment arrays per parameter array and
rebuilds each moment every step (``m = b1 m + (1 - b1) g``);
``reference_sigmoid`` writes the two halves of the logistic function
through boolean masks. The library steps one array and updates its moments
in place, and its sigmoid takes both halves from ``exp(min(x, -x))`` with
one ``where``. The property tests in ``test_nn_oracle.py`` require the two
to agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from canopy.nn import OptimizerDiverged


class ReferenceAdam:
    """In-place Adam/AMSGrad over a fixed list of parameter arrays."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(self, params, alpha=0.001, epsilon=1e-8, amsgrad=False):
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.amsgrad = bool(amsgrad)
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.v_hat_max = [np.zeros_like(p) for p in params] if amsgrad else None

    def step(self, params, grads) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("params/grads do not match the optimizer state")
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise OptimizerDiverged(f"non-finite gradient in parameter {i} at step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, (w, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            if self.amsgrad:
                np.maximum(self.v_hat_max[i], v_hat, out=self.v_hat_max[i])
                v_hat = self.v_hat_max[i]
            w -= self.alpha * m_hat / (np.sqrt(v_hat) + self.epsilon)


def reference_sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
