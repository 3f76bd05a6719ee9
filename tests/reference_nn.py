"""Oracle for canopy.nn's training step: the optimizer, sigmoid, dense and
batch-norm layers and binary cross-entropy as canopy shipped them before
the step was made to allocate little and skip unused work.

``ReferenceAdam`` keeps a list of moment arrays per parameter array and
rebuilds each moment every step (``m = b1 m + (1 - b1) g``);
``reference_sigmoid`` writes the two halves of the logistic function
through boolean masks, and ``reference_loss_and_grad`` applies each loss
kind's head inside its own loss, where the library derives every loss from
``predict_head``'s probabilities. ``ReferenceDense`` and ``ReferenceBatchNorm`` build
every intermediate as a new array (batch norm reduces its batch through
``mean`` and ``var``), and the dense layer always returns the gradient with
respect to its input; ``reference_bce`` clamps with ``np.clip``. The
library steps one array and updates its moments in place through two
scratch arrays, its sigmoid takes both halves from ``exp(min(x, -x))``
with one ``where``, its layers and loss work in place, and a network's
first layer computes no input gradient. The property tests in
``test_nn_oracle.py`` require the two to agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from canopy.nn import OptimizerDiverged
from canopy.nn.activations import activation_fns


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


class ReferenceDense:
    """y = activation(x @ W + b); backward returns dz @ W.T."""

    def __init__(self, W, b, activation="identity"):
        self.W = np.array(W, dtype=np.float64)
        self.b = np.array(b, dtype=np.float64)
        self._act, self._act_grad = activation_fns(activation)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._out = None

    def forward(self, x, train, rng=None):
        self._x = x
        self._out = self._act(x @ self.W + self.b)
        return self._out

    def backward(self, grad):
        dz = self._act_grad(self._out, grad)
        self.dW[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)
        return dz @ self.W.T


class ReferenceBatchNorm:
    """Batch normalization through ``mean`` and ``var`` and new arrays."""

    def __init__(self, n_features, epsilon=1e-5, momentum=0.99):
        self.gamma = np.ones(n_features)
        self.beta = np.zeros(n_features)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)
        self.dgamma = np.zeros(n_features)
        self.dbeta = np.zeros(n_features)
        self._cache = None

    def forward(self, x, train, rng=None):
        if train:
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

    def backward(self, grad):
        x_hat, inv_std = self._cache
        m = x_hat.shape[0]
        self.dgamma[...] = (grad * x_hat).sum(axis=0)
        self.dbeta[...] = grad.sum(axis=0)
        dx_hat = grad * self.gamma
        return (
            inv_std
            / m
            * (m * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
        )


def _reference_clamped_log(p):
    return np.log(np.clip(p, 1e-12, 1.0 - 1e-12))


def reference_bce(logits, truth):
    """Mean binary cross-entropy and its gradient, clamped with ``np.clip``."""
    p = reference_sigmoid(logits)
    n_cells = truth.size
    loss = -(truth * _reference_clamped_log(p)
             + (1.0 - truth) * _reference_clamped_log(1.0 - p)).sum() / n_cells
    return float(loss), (p - truth) / n_cells


def reference_softmax_ce_loss(p, truth):
    """Mean categorical cross-entropy of softmax probabilities ``p``."""
    return float(-(truth * _reference_clamped_log(p)).sum() / truth.shape[0])


def _reference_softmax_ce(logits, truth):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return reference_softmax_ce_loss(p, truth), (p - truth) / truth.shape[0]


def reference_loss_and_grad(kind, logits, truth, weather_count=0):
    """Loss and gradient with each kind's head applied inside its own loss,
    the hybrid's two halves computed apart and their gradients concatenated."""
    if kind == "bce":
        return reference_bce(logits, truth)
    if kind == "softmax_ce":
        return _reference_softmax_ce(logits, truth)
    wc = weather_count
    soft_loss, soft_grad = _reference_softmax_ce(logits[:, :wc], truth[:, :wc])
    loss, grad = reference_bce(logits[:, wc:], truth[:, wc:])
    return soft_loss + loss, np.concatenate([soft_grad, grad], axis=1)
