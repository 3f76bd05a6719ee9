"""Mini-batch training with seeded shuffling, early stopping, and
best-validation checkpointing.

Early stopping and checkpointing monitor independently: by default training
stops when validation loss fails to improve for ``patience`` consecutive
epochs, while the returned parameters are the snapshot with the maximum
validation sample-F2 seen at any epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import make_rng
from ..metrics import sample_fbeta
from .layers import BatchNorm
from .losses import loss_and_grad, predict_head
from .network import Network
from .optim import Adam

MONITORS = ("val_loss", "val_f2")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 100
    learning_rate: float = 0.001
    optimizer: str = "adam"  # adam | amsgrad
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    patience: int = 10
    stop_monitor: str = "val_loss"
    checkpoint_monitor: str = "val_f2"
    min_delta: float = 0.0
    decision_threshold: float = 0.5  # binarization for the F2 monitor
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.optimizer not in ("adam", "amsgrad"):
            raise ValueError("optimizer must be 'adam' or 'amsgrad'")
        if self.stop_monitor not in MONITORS or self.checkpoint_monitor not in MONITORS:
            raise ValueError(f"monitors must be one of {MONITORS}")


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


def _better(value: float, best: float, monitor: str, min_delta: float) -> bool:
    if monitor == "val_loss":
        return value < best - min_delta
    return value > best + min_delta


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
    loss or gradient, with the parameters as of the last finite step.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if len(x_val) == 0:
        raise ValueError("validation data must be non-empty")
    rng = make_rng(config.seed)
    optimizer = Adam(
        network.params,
        alpha=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
        amsgrad=config.optimizer == "amsgrad",
    )
    history: dict[str, list[float]] = {"train_loss": [], "val_loss": [], "val_f2": []}
    n = x.shape[0]
    best_stop = np.inf if config.stop_monitor == "val_loss" else -np.inf
    best_ckpt = np.inf if config.checkpoint_monitor == "val_loss" else -np.inf
    best_state = network.get_state()
    best_epoch = 0
    stale = 0
    epochs_run = 0

    has_bn = any(isinstance(layer, BatchNorm) for layer in network.layers)
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
            loss, grads = network.loss_and_gradients(x[idx], y[idx], train=True, rng=rng)
            if not np.isfinite(loss) or any(not np.isfinite(g).all() for g in grads):
                raise TrainingDiverged(
                    f"non-finite loss/gradient at epoch {epoch}", network.get_state(), history
                )
            optimizer.step(network.params, grads)
            batch_losses.append(loss)

        val_logits = network.forward(x_val, train=False)
        val_loss, _ = loss_and_grad(
            network.spec.loss, val_logits, y_val, network.spec.weather_count
        )
        val_probs = predict_head(network.spec.loss, val_logits, network.spec.weather_count)
        val_pred = (val_probs >= config.decision_threshold).astype(np.int8)
        val_f2 = sample_fbeta(val_pred, y_val.astype(np.int8))

        history["train_loss"].append(float(np.mean(batch_losses)))
        history["val_loss"].append(float(val_loss))
        history["val_f2"].append(float(val_f2))

        ckpt_value = val_loss if config.checkpoint_monitor == "val_loss" else val_f2
        if best_epoch == 0 or _better(ckpt_value, best_ckpt, config.checkpoint_monitor, 0.0):
            best_ckpt = ckpt_value
            best_state = network.get_state()
            best_epoch = epoch

        stop_value = val_loss if config.stop_monitor == "val_loss" else val_f2
        if _better(stop_value, best_stop, config.stop_monitor, config.min_delta):
            best_stop = stop_value
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    network.set_state(best_state)
    return TrainResult(
        network=network, history=history, best_epoch=best_epoch, epochs_run=epochs_run
    )
