"""Versioned JSON persistence for classical models (format version 2: each
tree is stored as flat, depth-first node lists).

One table gives each model kind its class and its fields in document order,
with the JSON type of each. A list field holds an array, except a forest's
``trees`` and a gbm's ``stages`` (``{"gamma", "tree"}``), which hold trees.
"""

from __future__ import annotations

import numpy as np

from ..data import LabelVocabulary, load_json, save_json
from .forest import ForestModel
from .gbm import GbmModel
from .lda import LdaModel
from .multioutput import ConstantModel, LearnerSpec, MultiOutputModel
from .tree import NODE_ARRAYS, DecisionTree

FORMAT, VERSION = "canopy-model", 2
NUM = (int, float)
TREE = {"criterion": str, "classes": list | None, "n_features": int,
        **dict.fromkeys(NODE_ARRAYS, list)}
LDA_ARRAYS = ("s_w", "s_b", "eigenvalues", "projection", "class_means", "classes", "priors")
KINDS = {
    "constant": (ConstantModel, {"probability": NUM}),
    "tree": (DecisionTree, TREE),
    "forest": (ForestModel, {"variant": str, "bootstrap": bool, "feature_rule": str,
                             "seed": int, "classes": list, "trees": list}),
    "gbm": (GbmModel, {"f0": NUM, "learning_rate": NUM, "loss": str, "gamma_mode": str,
                       "stages": list}),
    "lda": (LdaModel, {**dict.fromkeys(LDA_ARRAYS, list), "pooled_var": NUM, "reg_lambda": NUM}),
}


def _encode(value):
    """A field's JSON form: arrays become lists, trees and (tree, gamma) stages objects."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, DecisionTree):
        return {name: _encode(getattr(value, name)) for name in TREE}
    if isinstance(value, tuple):
        return {"gamma": value[1], "tree": _encode(value[0])}
    return [_encode(v) for v in value] if isinstance(value, list) else value


def _model_dict(model) -> dict:
    for kind, (cls, fields) in KINDS.items():
        if type(model) is cls:
            return {"kind": kind, **{name: _encode(getattr(model, name)) for name in fields}}
    raise TypeError(f"cannot serialize model {type(model).__name__}")


def _field(d: dict, name: str, kind):
    """``d[name]``, which must be of JSON type ``kind``."""
    if not isinstance(d[name], kind):
        raise ValueError(f"field {name!r} holds a {type(d[name]).__name__}")
    return d[name]


def _decode(d: dict, name: str, kind):
    """Field ``name`` of ``d``: the inverse of :func:`_encode`."""
    value = _field(d, name, kind)
    if name == "trees":
        return [_model(t, "tree") for t in value]
    if name == "stages":
        return [(_model(s["tree"], "tree"), _field(s, "gamma", NUM)) for s in value]
    if isinstance(value, list):
        value = np.asarray(value)
        if value.dtype.kind not in "biuf":
            raise ValueError(f"field {name!r} must hold numbers")
    return value


def _model(d: dict, kind: str | None = None):
    """The model of ``kind`` (by default ``d["kind"]``) that ``d`` encodes."""
    kind = _field(d, "kind", str) if kind is None else kind
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, fields = KINDS[kind]
    model = cls(**{name: _decode(d, name, typ) for name, typ in fields.items()})
    if kind == "tree":
        _check_nodes(model)
    return model


def _check_nodes(tree: DecisionTree) -> None:
    """Node arrays agree in length, and each split names one of the tree's
    features and two child nodes after its own (ids run depth-first, so a
    walk down the tree always ends)."""
    n = len(tree.feature)
    width = () if tree.classes is None else (len(tree.classes),)
    shapes = {getattr(tree, a).shape for a in NODE_ARRAYS if a != "value"}
    if shapes != {(n,)} or tree.value.shape != (n, *width):
        raise ValueError("tree node arrays disagree in length")
    if any(getattr(tree, a).dtype.kind != "i" for a in ("feature", "left", "right")):
        raise ValueError("tree node ids and features must be integers")
    split = np.flatnonzero(tree.feature >= 0)
    children = np.concatenate([tree.left[split], tree.right[split]])
    if (tree.feature >= tree.n_features).any() or not (
        (children > np.tile(split, 2)) & (children < n)
    ).all():
        raise ValueError("a tree split names a feature or node outside the tree")


def _multioutput(doc: dict) -> MultiOutputModel:
    learner, vocab = doc["learner"], doc["vocab"]
    vocab = LabelVocabulary(tuple(_field(vocab, "names", list)), _field(vocab, "weather_count", int))
    models = [_model(m) for m in _field(doc, "models", list)]
    if len(models) != len(vocab):
        raise ValueError(f"{len(models)} models for {len(vocab)} labels")
    spec = LearnerSpec(kind=learner["kind"], params=_field(learner, "params", dict))
    return MultiOutputModel(spec, vocab, models, _field(doc, "n_features", int))


def save_model(path, model: MultiOutputModel) -> None:
    save_json(path, FORMAT, VERSION, {
        "learner": {"kind": model.spec.kind, "params": model.spec.params},
        "vocab": {"names": list(model.vocab.names), "weather_count": model.vocab.weather_count},
        "n_features": model.n_features,
        "models": [_model_dict(m) for m in model.models],
    })


def load_model(path) -> MultiOutputModel:
    """The model saved at ``path``; a damaged file is a ValueError naming it."""
    return load_json(path, FORMAT, VERSION, _multioutput)
