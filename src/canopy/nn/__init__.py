"""From-scratch dense network engine: layers with batch normalization,
sigmoid/softmax/hybrid heads, Adam/AMSGrad optimizers, early stopping and
checkpointing. Everything runs on float64 numpy for exact reproducibility.
"""

from .activations import relu, sigmoid, softmax
from .layers import Activation, BatchNorm, Dense, Dropout
from .losses import head_loss, loss_and_grad, predict_head
from .network import Network, NetworkSpec
from .optim import Adam, OptimizerDiverged
from .training import OPTIMIZERS, TrainConfig, TrainingDiverged, TrainResult, train
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Activation",
    "Adam",
    "BatchNorm",
    "Dense",
    "Dropout",
    "Network",
    "NetworkSpec",
    "OPTIMIZERS",
    "OptimizerDiverged",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "head_loss",
    "load_checkpoint",
    "loss_and_grad",
    "predict_head",
    "relu",
    "save_checkpoint",
    "sigmoid",
    "softmax",
    "train",
]
