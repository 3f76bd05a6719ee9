"""Network assembly: a layer stack described by a NetworkSpec, with forward,
backward, and probability prediction through the head that matches the
configured loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import check_int, make_rng
from .layers import Activation, BatchNorm, Dense, Dropout
from .losses import check_head, loss_and_grad, predict_head


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description; hidden blocks are
    dense -> [batch norm] -> activation -> [dropout], then a linear output
    layer whose head (sigmoid / softmax / softmax+sigmoid split) follows
    from the loss kind.
    """

    in_dim: int
    out_dim: int
    hidden: tuple[int, ...] = (64,)
    hidden_activation: str = "relu"
    batch_norm: bool = False
    dropout: float = 0.0
    loss: str = "bce"  # bce | softmax_ce | hybrid
    weather_count: int = 0

    def __post_init__(self):
        for name in ("in_dim", "out_dim", "weather_count"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("in_dim and out_dim must be >= 1")
        check_head(self.loss, self.weather_count, self.out_dim)
        widths = tuple(check_int("hidden widths", h) for h in self.hidden)
        object.__setattr__(self, "hidden", widths)
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


def _init_weight(rng, fan_in: int, fan_out: int, activation: str) -> np.ndarray:
    # uniform He-style scaling for relu, Glorot-style otherwise
    if activation == "relu":
        bound = np.sqrt(6.0 / fan_in)
    else:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Network:
    """A trainable layer stack; single-writer on its own arrays. Every layer
    array is a reshaped view into one vector, ``state``: the ``PARAMS`` arrays
    in layer order make up its head ``theta``, the batch-norm running
    statistics follow. Gradients (``dW``, ...) are views into ``grad``, laid
    out like ``theta``. The optimizer steps one array; a snapshot copies one.
    """

    def __init__(self, spec: NetworkSpec, layers: list):
        self.spec = spec
        self.layers = layers
        held = [(i, name, getattr(layer, name)) for i, layer in enumerate(layers)
                for name in layer.PARAMS]
        n_params = sum(a.size for _, _, a in held)
        held += [(i, name, getattr(layer, name)) for i, layer in enumerate(layers)
                 for name in layer.ARRAYS[len(layer.PARAMS):]]
        self.state = np.concatenate([a.ravel() for _, _, a in held])
        self.theta = self.state[:n_params]
        self.grad = np.zeros_like(self.theta)
        self.spans: list[tuple[int, str, int]] = []  # (layer index, name, stop) in theta
        start = 0
        for i, name, a in held:
            stop = start + a.size
            setattr(layers[i], name, self.state[start:stop].reshape(a.shape))
            if stop <= n_params:
                setattr(layers[i], "d" + name, self.grad[start:stop].reshape(a.shape))
                self.spans.append((i, name, stop))
            start = stop

    @classmethod
    def init(cls, spec: NetworkSpec, seed: int) -> "Network":
        rng = make_rng(seed)
        layers: list = []
        dim, act = spec.in_dim, spec.hidden_activation
        for h in spec.hidden:
            W, b = _init_weight(rng, dim, h, act), np.zeros(h)
            if spec.batch_norm:
                layers += [Dense(W, b), BatchNorm(h), Activation(act)]
            else:
                layers.append(Dense(W, b, activation=act))
            if spec.dropout > 0.0:
                layers.append(Dropout(spec.dropout))
            dim = h
        layers.append(Dense(_init_weight(rng, dim, spec.out_dim, "identity"), np.zeros(spec.out_dim)))
        return cls(spec, layers)

    # -- parameter plumbing -------------------------------------------------

    def get_state(self) -> np.ndarray:
        """A copy of ``state``."""
        return self.state.copy()

    def set_state(self, state: np.ndarray) -> None:
        self.state[...] = state

    # -- computation ---------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        """Logits of the final linear layer."""
        out = np.asarray(x, dtype=np.float64)
        if out.ndim != 2 or out.shape[1] != self.spec.in_dim:
            raise ValueError(f"expected input of width {self.spec.in_dim}, got {out.shape}")
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
        return out

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray, train: bool = True, rng=None
    ) -> tuple[float, np.ndarray]:
        """One forward/backward pass; returns (loss, ``grad``)."""
        logits = self.forward(x, train=train, rng=rng)
        loss, dlogits = loss_and_grad(self.spec.loss, logits, y, self.spec.weather_count)
        self.backward(dlogits)
        return loss, self.grad

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward through the head; rows of probabilities."""
        logits = self.forward(np.atleast_2d(x), train=False)
        return predict_head(self.spec.loss, logits, self.spec.weather_count)
