"""Versioned JSON checkpoints: layer shapes and parameters, batch-norm
running statistics, and the training metadata (seed, optimizer settings).
Floats round-trip exactly through JSON's repr encoding.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..data import load_json, save_json
from .layers import Activation, BatchNorm, Dense, Dropout
from .network import Network, NetworkSpec

FORMAT = "canopy-nn-checkpoint"
VERSION = 1


def _layer_dict(layer) -> dict:
    if isinstance(layer, Dense):
        return {
            "kind": "dense",
            "activation": layer.activation,
            "shape": list(layer.W.shape),
            "W": layer.W.tolist(),
            "b": layer.b.tolist(),
        }
    if isinstance(layer, BatchNorm):
        return {
            "kind": "batch_norm",
            "epsilon": layer.epsilon,
            "momentum": layer.momentum,
            "gamma": layer.gamma.tolist(),
            "beta": layer.beta.tolist(),
            "running_mean": layer.running_mean.tolist(),
            "running_var": layer.running_var.tolist(),
        }
    if isinstance(layer, Activation):
        return {"kind": "activation", "name": layer.name}
    if isinstance(layer, Dropout):
        return {"kind": "dropout", "rate": layer.rate}
    raise TypeError(f"cannot serialize layer {type(layer).__name__}")


def _layer_from_dict(d: dict):
    kind = d["kind"]
    if kind == "dense":
        return Dense(np.array(d["W"]), np.array(d["b"]), activation=d["activation"])
    if kind == "batch_norm":
        layer = BatchNorm(len(d["gamma"]), epsilon=d["epsilon"], momentum=d["momentum"])
        layer.gamma[...] = d["gamma"]
        layer.beta[...] = d["beta"]
        layer.running_mean[...] = d["running_mean"]
        layer.running_var[...] = d["running_var"]
        return layer
    if kind == "activation":
        return Activation(d["name"])
    if kind == "dropout":
        return Dropout(d["rate"])
    raise ValueError(f"unknown layer kind {kind!r}")


def save_checkpoint(path: str | Path, network: Network, meta: dict | None = None) -> None:
    save_json(path, FORMAT, VERSION, {
        "spec": asdict(network.spec),
        "layers": [_layer_dict(layer) for layer in network.layers],
        "meta": dict(meta or {}),
    })


def _network(doc: dict) -> tuple[Network, dict]:
    spec = NetworkSpec(**{**doc["spec"], "hidden": tuple(doc["spec"]["hidden"])})
    layers = [_layer_from_dict(d) for d in doc["layers"]]
    return Network(spec, layers), doc.get("meta", {})


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """The network and metadata saved at ``path``; a damaged file is a
    ValueError naming it."""
    return load_json(path, FORMAT, VERSION, _network)
