"""Versioned JSON checkpoints: layer shapes and parameters, batch-norm
running statistics, and the caller's ``meta`` dict, stored as given
(``canopy stack`` saves ``seed`` and ``n_models``). Floats round-trip
exactly through JSON's repr encoding.

The spec is the only description of the architecture: a checkpoint loads
by building ``Network.init(spec)`` and checking each saved layer against
the built one before copying its arrays in.
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
# layer class -> (kind, fields in document order); the layer's ARRAYS follow
LAYERS = {
    Dense: ("dense", ("activation", "shape")),
    BatchNorm: ("batch_norm", ("epsilon", "momentum")),
    Activation: ("activation", ("name",)),
    Dropout: ("dropout", ("rate",)),
}


def _field(layer, name: str):
    """A layer field's JSON form."""
    value = getattr(layer, name)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def _layer_dict(layer) -> dict:
    kind, fields = LAYERS[type(layer)]
    return {"kind": kind, **{name: _field(layer, name) for name in (*fields, *layer.ARRAYS)}}


def save_checkpoint(path: str | Path, network: Network, meta: dict | None = None) -> None:
    save_json(path, FORMAT, VERSION, {
        "spec": asdict(network.spec),
        "layers": [_layer_dict(layer) for layer in network.layers],
        "meta": dict(meta or {}),
    })


def _network(doc: dict) -> tuple[Network, dict]:
    spec = NetworkSpec(**{**doc["spec"], "hidden": tuple(doc["spec"]["hidden"])})
    network = Network.init(spec, seed=0)
    saved, n = doc["layers"], len(network.layers)
    held = len(saved) if isinstance(saved, list) else "no list of"
    if held != n:
        raise ValueError(f"the file holds {held} layers where the spec builds {n}")
    for i, (d, layer) in enumerate(zip(saved, network.layers)):
        kind, fields = LAYERS[type(layer)]
        if d["kind"] != kind:
            raise ValueError(f"layer {i} is a {d['kind']!r} where the spec builds a {kind!r}")
        for name in fields:
            built = _field(layer, name)
            if d[name] != built:
                raise ValueError(f"layer {i} {name} {d[name]!r} where the spec builds {built!r}")
        for name in layer.ARRAYS:
            array, value = getattr(layer, name), np.asarray(d[name])
            if value.dtype.kind not in "iuf" or value.shape != array.shape:
                raise ValueError(f"layer {i} {name} must hold {array.shape} numbers")
            if not np.isfinite(value).all():
                raise ValueError(f"layer {i} {name} must be finite")
            array[...] = value
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"meta holds a {type(meta).__name__}, not an object")
    return network, meta


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """The network and metadata saved at ``path``; a damaged file, or one
    whose layers disagree with its spec, is a ValueError naming it."""
    return load_json(path, FORMAT, VERSION, _network)
