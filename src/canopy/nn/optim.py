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
    """In-place Adam/AMSGrad over one parameter array (a Network passes
    ``theta``); ``alpha`` and ``epsilon`` must be positive, finite."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(
        self,
        w: np.ndarray,
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
        self.m = np.zeros_like(w)
        self.v = np.zeros_like(w)
        self.v_hat_max = np.zeros_like(w) if amsgrad else None

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        """Step ``w`` in place along gradient ``g``; both are checked before any write."""
        if w.shape != self.m.shape or g.shape != self.m.shape:
            raise ValueError(
                f"w {w.shape} and g {g.shape} do not match the optimizer's {self.m.shape}")
        if not np.isfinite(g).all():
            raise OptimizerDiverged(f"non-finite gradient at step {self.t + 1}")
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        if self.amsgrad:
            v_hat = np.maximum(self.v_hat_max, v_hat, out=self.v_hat_max)
        w -= self.alpha * m_hat / (np.sqrt(v_hat) + self.epsilon)
