"""Adam and AMSGrad: first/second-moment estimates with bias correction.

Per step t (incremented first):

    m <- b1 m + (1 - b1) g          v <- b2 v + (1 - b2) g^2
    m_hat = m / (1 - b1^t)          v_hat = v / (1 - b2^t)
    AMSGrad only:  v_hat <- max(previous v_hat, v_hat)   (elementwise)
    w <- w - alpha * m_hat / (sqrt(v_hat) + eps)

b1 = 0.9, b2 = 0.999 and eps = 1e-8 are fixed (Kingma & Ba 2015); alpha
defaults to 0.001.
"""

from __future__ import annotations

import numpy as np


class OptimizerDiverged(RuntimeError):
    """Raised when a gradient stops being finite."""


class Adam:
    """In-place Adam/AMSGrad over one parameter array (a Network passes
    ``theta``); ``alpha`` must be positive and finite."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, w: np.ndarray, alpha: float = 0.001, amsgrad: bool = False):
        if not 0.0 < alpha < np.inf:  # NaN fails too
            raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
        self.alpha = float(alpha)
        self.amsgrad = bool(amsgrad)
        self.t = 0
        self.m = np.zeros_like(w)
        self.v = np.zeros_like(w)
        self.v_hat_max = np.zeros_like(w) if amsgrad else None
        self._scratch = (np.empty_like(w), np.empty_like(w))

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        """Step ``w`` in place along gradient ``g``; both are checked before any write."""
        if w.shape != self.m.shape or g.shape != self.m.shape:
            raise ValueError(
                f"w {w.shape} and g {g.shape} do not match the optimizer's {self.m.shape}")
        if not np.isfinite(g).all():
            raise OptimizerDiverged(f"non-finite gradient at step {self.t + 1}")
        self.t += 1
        # one in-place pass per line, through two scratch arrays, in the order of
        # m += (1 - b1) g;  v += ((1 - b2) g) g;  w -= (alpha m_hat) / (sqrt(v_hat) + eps)
        a, b = self._scratch
        np.multiply(g, 1.0 - self.beta1, out=a)
        self.m *= self.beta1
        self.m += a
        np.multiply(g, 1.0 - self.beta2, out=a)
        a *= g
        self.v *= self.beta2
        self.v += a
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)  # m_hat
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)  # v_hat
        if self.amsgrad:
            np.maximum(self.v_hat_max, b, out=self.v_hat_max)
        np.sqrt(self.v_hat_max if self.amsgrad else b, out=b)
        b += self.epsilon
        a *= self.alpha
        a /= b
        w -= a
