"""Network layers: dense (optionally fused with an activation), batch
normalization with running statistics, standalone activation, and inverted
dropout. Each layer caches what its own backward pass needs. ``PARAMS``
names its trainable arrays, whose gradients (``dW`` for ``W``, ...)
``backward`` writes in place; ``ARRAYS`` is ``PARAMS`` and then any running
statistics, in the order a checkpoint saves them. Every array is updated in
place, never rebound, so in a ``Network`` each stays a view into its
``state`` vector (and each gradient into its ``grad``).
"""

from __future__ import annotations

import numpy as np

from .activations import activation_fns


class Dense:
    """y = activation(x @ W + b). W has shape (in_dim, out_dim)."""

    PARAMS = ARRAYS = ("W", "b")

    def __init__(self, W: np.ndarray, b: np.ndarray, activation: str = "identity"):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[1],):
            raise ValueError("W must be (in_dim, out_dim) and b (out_dim,)")
        self._act, self._act_grad = activation_fns(activation)
        self.activation = activation
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._out = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.W.shape

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        self._x = x
        self._out = self._act(x @ self.W + self.b)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dz = self._act_grad(self._out, grad)
        self.dW[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)
        return dz @ self.W.T


class Activation:
    """Standalone elementwise activation (used between BN and dropout)."""

    PARAMS = ARRAYS = ()

    def __init__(self, name: str):
        self._act, self._act_grad = activation_fns(name)
        self.name = name
        self._out = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        self._out = self._act(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self._act_grad(self._out, grad)


class BatchNorm:
    """Per-feature batch normalization with learned gamma/beta.

    Train mode normalizes with the biased batch statistics (and needs a
    batch of at least 2); inference normalizes with the frozen running
    statistics, so repeated calls are pure. Running stats follow, in place,
    running = momentum * running + (1 - momentum) * batch.
    """

    PARAMS = ("gamma", "beta")
    ARRAYS = (*PARAMS, "running_mean", "running_var")

    def __init__(
        self,
        n_features: int,
        epsilon: float = 1e-5,
        momentum: float = 0.99,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        self.gamma = np.ones(n_features)
        self.beta = np.zeros(n_features)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)
        self.dgamma = np.zeros(n_features)
        self.dbeta = np.zeros(n_features)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        if train:
            if x.shape[0] < 2:
                raise ValueError("batch norm in train mode needs a batch of >= 2")
            mean = x.mean(axis=0)
            var = x.var(axis=0)  # biased, 1/m
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            x_hat = (x - mean) * inv_std
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                running *= self.momentum
                running += (1 - self.momentum) * batch
            self._cache = (x_hat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            x_hat = (x - self.running_mean) * inv_std
            self._cache = None
        return self.gamma * x_hat + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward requires a preceding train-mode forward")
        x_hat, inv_std = self._cache
        m = x_hat.shape[0]
        self.dgamma[...] = (grad * x_hat).sum(axis=0)
        self.dbeta[...] = grad.sum(axis=0)
        dx_hat = grad * self.gamma
        # backprop through the batch mean and variance
        return (
            inv_std
            / m
            * (m * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
        )


class Dropout:
    """Inverted dropout: train scales kept units by 1/(1-rate); infer is identity."""

    PARAMS = ARRAYS = ()

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = float(rate)
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask
