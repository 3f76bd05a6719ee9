"""Adam and AMSGrad: first/second-moment estimates with bias correction.

Per step t (incremented first):

    m <- b1 m + (1 - b1) g          v <- b2 v + (1 - b2) g^2
    m_hat = m / (1 - b1^t)          v_hat = v / (1 - b2^t)
    AMSGrad only:  v_hat <- max(previous v_hat, v_hat)   (elementwise)
    w <- w - alpha * m_hat / (sqrt(v_hat) + eps)

b1 = 0.9 and b2 = 0.999 are fixed (Kingma & Ba 2015); alpha defaults to
0.001 and eps to 1e-8.
"""

from __future__ import annotations

import numpy as np


class OptimizerDiverged(RuntimeError):
    """Raised when a gradient stops being finite."""


class Adam:
    """In-place Adam/AMSGrad over a fixed list of parameter arrays (a Network
    passes one, ``theta``); ``alpha`` and ``epsilon`` must be positive, finite."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(
        self,
        params: list[np.ndarray],
        alpha: float = 0.001,
        epsilon: float = 1e-8,
        amsgrad: bool = False,
    ):
        if not 0.0 < alpha < np.inf:  # NaN fails too
            raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
        if not 0.0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.amsgrad = bool(amsgrad)
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.v_hat_max = [np.zeros_like(p) for p in params] if amsgrad else None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
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
