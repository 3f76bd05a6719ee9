"""Mini-batch training with seeded shuffling, early stopping, and
best-validation checkpointing.

The two rules are fixed and watch different values. Training stops once
``patience`` consecutive epochs fail to bring the validation loss below the
best so far minus ``min_delta`` (patience on validation loss, Prechelt 1998).
The returned parameters are those of the first epoch with the highest
validation sample-F2, each prediction binarized at ``DEFAULT_CUTOFF``.
Adam's moment decays are fixed at 0.9 and 0.999.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import check_int, make_rng
from ..metrics import sample_fbeta
from ..thresholds import DEFAULT_CUTOFF
from .losses import loss_and_grad, predict_head
from .network import Network
from .optim import Adam, OptimizerDiverged


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 100
    learning_rate: float = 0.001
    optimizer: str = "adam"  # adam | amsgrad
    epsilon: float = 1e-8
    patience: int = 10
    min_delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed))
        if self.optimizer not in ("adam", "amsgrad"):
            raise ValueError("optimizer must be 'adam' or 'amsgrad'")
        if not 0.0 <= self.min_delta < np.inf:  # NaN fails too
            raise ValueError(f"min_delta must be non-negative and finite, got {self.min_delta!r}")


class TrainingDiverged(RuntimeError):
    """Loss or gradients stopped being finite; carries the last finite state."""

    def __init__(self, message: str, last_state, history):
        super().__init__(message)
        self.last_state = last_state
        self.history = history


@dataclass
class TrainResult:
    network: Network
    history: dict[str, list[float]]
    best_epoch: int  # 1-based epoch whose checkpoint was restored
    epochs_run: int

    @property
    def best_val_f2(self) -> float:
        return self.history["val_f2"][self.best_epoch - 1]


def train(
    network: Network,
    x: np.ndarray,
    y: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train in place and restore the best-checkpoint parameters.

    History records per-epoch train loss (mean over batches), validation
    loss, and validation sample-F2. Raises TrainingDiverged on a non-finite
    loss or gradient, with the parameters as of the last finite step; a
    gradient's message names the array of its first non-finite entry.
    Training data with no rows, or with ``x`` and ``y`` of different row
    counts, is refused before the first step, and so is validation data
    with no rows, unequal row counts, or widths other than the network's.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} training rows but y has {len(y)}")
    if len(x) == 0:
        raise ValueError("training data has 0 rows; training needs at least 1")
    if len(x_val) != len(y_val):
        raise ValueError(
            f"validation data: x_val has {len(x_val)} rows but y_val has {len(y_val)}")
    if len(x_val) == 0:
        raise ValueError("validation data must be non-empty")
    spec = network.spec
    for name, a, width in (("x_val", x_val, spec.in_dim), ("y_val", y_val, spec.out_dim)):
        if a.ndim != 2 or a.shape[1] != width:
            raise ValueError(
                f"validation data: {name} has shape {a.shape}, the network needs {width} columns")
    rng = make_rng(config.seed)
    optimizer = Adam(network.theta, alpha=config.learning_rate, epsilon=config.epsilon,
                     amsgrad=config.optimizer == "amsgrad")
    history: dict[str, list[float]] = {"train_loss": [], "val_loss": [], "val_f2": []}
    n = x.shape[0]
    best_loss = np.inf
    best_f2 = -np.inf
    best_state = network.get_state()
    best_epoch = 0
    stale = 0
    epochs_run = 0

    has_bn = network.spec.batch_norm
    if has_bn and n < 2:
        raise ValueError("batch-normalized networks need at least 2 training samples")
    starts = list(range(0, n, config.batch_size))
    # BN cannot normalize a single row: fold a trailing singleton into the
    # previous batch (sizes become b, ..., b, b+1)
    if has_bn and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n)
        batch_losses = []
        for i, start in enumerate(starts):
            stop = starts[i + 1] if i + 1 < len(starts) else n
            idx = order[start:stop]
            loss, grad = network.loss_and_gradients(x[idx], y[idx], train=True, rng=rng)
            if not np.isfinite(loss):
                state = network.get_state()
                raise TrainingDiverged(f"epoch {epoch}: non-finite loss", state, history)
            try:
                optimizer.step(network.theta, grad)  # checks the gradient before any write
            except OptimizerDiverged as exc:
                k = np.flatnonzero(~np.isfinite(grad))[0]
                i, name, _ = next(span for span in network.spans if k < span[2])
                message = (f"epoch {epoch}: non-finite gradient in layer {i} {name}"
                           f" at step {optimizer.t + 1}")
                raise TrainingDiverged(message, network.get_state(), history) from exc
            batch_losses.append(loss)

        val_logits = network.forward(x_val, train=False)
        val_loss, _ = loss_and_grad(
            network.spec.loss, val_logits, y_val, network.spec.weather_count
        )
        val_probs = predict_head(network.spec.loss, val_logits, network.spec.weather_count)
        val_pred = (val_probs >= DEFAULT_CUTOFF).astype(np.int8)
        val_f2 = sample_fbeta(val_pred, y_val.astype(np.int8))

        history["train_loss"].append(float(np.mean(batch_losses)))
        history["val_loss"].append(float(val_loss))
        history["val_f2"].append(float(val_f2))

        if val_f2 > best_f2:  # sample-F2 of 0/1 predictions is finite
            best_f2 = val_f2
            best_state = network.get_state()
            best_epoch = epoch

        if val_loss < best_loss - config.min_delta:
            best_loss = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    network.set_state(best_state)
    return TrainResult(
        network=network, history=history, best_epoch=best_epoch, epochs_run=epochs_run
    )
