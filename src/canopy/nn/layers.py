"""Network layers: dense (optionally fused with an activation), batch
normalization with running statistics, standalone activation, and inverted
dropout. Each layer caches what its own backward pass needs, and writes in
place only into its own arrays and those it made, never into its input,
the gradient it is given or another layer's cache; a network's first
``Dense`` skips the gradient with respect to its input, which nothing
reads. ``PARAMS`` names its trainable arrays, whose gradients (``dW`` for ``W``, ...)
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
        z = x @ self.W
        z += self.b
        self._out = self._act(z)
        return self._out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write ``dW`` and ``db``; return the gradient with respect to the
        input, or None when ``input_grad`` is false (a network's first layer)."""
        dz = self._act_grad(self._out, grad)
        np.matmul(self._x.T, dz, out=self.dW)
        np.add.reduce(dz, axis=0, out=self.db)
        return dz @ self.W.T if input_grad else None


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
    running = momentum * running + (1 - momentum) * batch, momentum = 0.99.
    """

    PARAMS = ("gamma", "beta")
    ARRAYS = (*PARAMS, "running_mean", "running_var")
    momentum = 0.99

    def __init__(self, n_features: int, epsilon: float = 1e-5):
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        self.gamma = np.ones(n_features)
        self.beta = np.zeros(n_features)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.epsilon = float(epsilon)
        self.dgamma = np.zeros(n_features)
        self.dbeta = np.zeros(n_features)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        if train:
            m = x.shape[0]
            if m < 2:
                raise ValueError("batch norm in train mode needs a batch of >= 2")
            # np.mean's and np.var's arithmetic, with the batch centred once
            mean = np.add.reduce(x, axis=0) / m
            x_hat = x - mean
            var = np.add.reduce(x_hat * x_hat, axis=0) / m  # biased, 1/m
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            x_hat *= inv_std
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                running *= self.momentum
                running += (1 - self.momentum) * batch
            self._cache = (x_hat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            x_hat = (x - self.running_mean) * inv_std
            self._cache = None
        out = self.gamma * x_hat
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the batch mean and variance:
        inv_std / m * (m dx_hat - sum(dx_hat) - x_hat sum(dx_hat x_hat)),
        with dx_hat = grad gamma, evaluated in that order on one scratch array."""
        if self._cache is None:
            raise RuntimeError("backward requires a preceding train-mode forward")
        x_hat, inv_std = self._cache
        m = x_hat.shape[0]
        scratch = np.multiply(grad, x_hat)
        np.add.reduce(scratch, axis=0, out=self.dgamma)
        np.add.reduce(grad, axis=0, out=self.dbeta)
        dx = np.multiply(grad, self.gamma)
        dx_hat_sum = np.add.reduce(dx, axis=0)
        np.multiply(dx, x_hat, out=scratch)
        np.multiply(x_hat, np.add.reduce(scratch, axis=0), out=scratch)
        dx *= m
        dx -= dx_hat_sum
        dx -= scratch
        dx *= inv_std / m
        return dx


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
