"""Reference encoders for saved models: one hand-written branch per model
kind and per layer kind, writing the classical model format version 2 and
the network checkpoint format version 1.

``canopy.classical.save_model`` and ``canopy.nn.save_checkpoint`` walk one
key table and share one header writer; their files must stay byte-identical
to the files written here.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from canopy.classical import ConstantModel, DecisionTree, ForestModel, GbmModel, LdaModel
from canopy.classical.tree import NODE_ARRAYS
from canopy.nn import Activation, BatchNorm, Dense, Dropout


def _tree_dict(tree: DecisionTree) -> dict:
    return {
        "criterion": tree.criterion,
        "classes": None if tree.classes is None else tree.classes.tolist(),
        "n_features": tree.n_features,
        **{name: getattr(tree, name).tolist() for name in NODE_ARRAYS},
    }


def _model_dict(model) -> dict:
    if isinstance(model, ConstantModel):
        return {"kind": "constant", "probability": model.probability}
    if isinstance(model, DecisionTree):
        return {"kind": "tree", **_tree_dict(model)}
    if isinstance(model, ForestModel):
        return {
            "kind": "forest",
            "variant": model.variant,
            "bootstrap": model.bootstrap,
            "feature_rule": model.feature_rule,
            "seed": model.seed,
            "classes": model.classes.tolist(),
            "trees": [_tree_dict(t) for t in model.trees],
        }
    if isinstance(model, GbmModel):
        return {
            "kind": "gbm",
            "f0": model.f0,
            "learning_rate": model.learning_rate,
            "loss": model.loss,
            "gamma_mode": model.gamma_mode,
            "stages": [{"gamma": g, "tree": _tree_dict(t)} for t, g in model.stages],
        }
    if isinstance(model, LdaModel):
        return {
            "kind": "lda",
            "s_w": model.s_w.tolist(),
            "s_b": model.s_b.tolist(),
            "eigenvalues": model.eigenvalues.tolist(),
            "projection": model.projection.tolist(),
            "class_means": model.class_means.tolist(),
            "classes": model.classes.tolist(),
            "priors": model.priors.tolist(),
            "pooled_var": model.pooled_var,
            "reg_lambda": model.reg_lambda,
        }
    raise TypeError(f"cannot serialize model {type(model).__name__}")


def save_model(path, model) -> None:
    doc = {
        "format": "canopy-model",
        "version": 2,
        "learner": {"kind": model.spec.kind, "params": model.spec.params},
        "vocab": {"names": list(model.vocab.names), "weather_count": model.vocab.weather_count},
        "n_features": model.n_features,
        "models": [_model_dict(m) for m in model.models],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


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


def save_checkpoint(path, network, meta: dict | None = None) -> None:
    doc = {
        "format": "canopy-nn-checkpoint",
        "version": 1,
        "spec": asdict(network.spec),
        "layers": [_layer_dict(layer) for layer in network.layers],
        "meta": dict(meta or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
