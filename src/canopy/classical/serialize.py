"""Versioned JSON persistence for classical models (format version 2: each
tree is stored as flat, depth-first node lists)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from ..data import LabelVocabulary
from .forest import ForestModel
from .gbm import GbmModel
from .lda import LdaModel
from .multioutput import ConstantModel, LearnerSpec, MultiOutputModel
from .tree import NODE_ARRAYS, DecisionTree

FORMAT = "canopy-model"
VERSION = 2


def _tree_dict(tree: DecisionTree) -> dict:
    return {
        "criterion": tree.criterion,
        "classes": None if tree.classes is None else tree.classes.tolist(),
        "n_features": tree.n_features,
        **{name: getattr(tree, name).tolist() for name in NODE_ARRAYS},
    }


def _tree_from_dict(d: dict) -> DecisionTree:
    classes = None if d["classes"] is None else np.asarray(d["classes"])
    return DecisionTree(
        **{name: np.asarray(d[name]) for name in NODE_ARRAYS},
        criterion=d["criterion"],
        classes=classes,
        n_features=d["n_features"],
    )


def _model_dict(model: Any) -> dict:
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


def _model_from_dict(d: dict) -> Any:
    kind = d["kind"]
    if kind == "constant":
        return ConstantModel(probability=d["probability"])
    if kind == "tree":
        return _tree_from_dict(d)
    if kind == "forest":
        return ForestModel(
            trees=[_tree_from_dict(t) for t in d["trees"]],
            classes=np.asarray(d["classes"]),
            variant=d["variant"],
            bootstrap=d["bootstrap"],
            feature_rule=d["feature_rule"],
            seed=d["seed"],
        )
    if kind == "gbm":
        return GbmModel(
            f0=d["f0"],
            stages=[(_tree_from_dict(s["tree"]), s["gamma"]) for s in d["stages"]],
            learning_rate=d["learning_rate"],
            loss=d["loss"],
            gamma_mode=d["gamma_mode"],
        )
    if kind == "lda":
        return LdaModel(
            s_w=np.asarray(d["s_w"]),
            s_b=np.asarray(d["s_b"]),
            eigenvalues=np.asarray(d["eigenvalues"]),
            projection=np.asarray(d["projection"]),
            class_means=np.asarray(d["class_means"]),
            classes=np.asarray(d["classes"]),
            priors=np.asarray(d["priors"]),
            pooled_var=d["pooled_var"],
            reg_lambda=d["reg_lambda"],
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(path: str | Path, model: MultiOutputModel) -> None:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "learner": {"kind": model.spec.kind, "params": model.spec.params},
        "vocab": {"names": list(model.vocab.names), "weather_count": model.vocab.weather_count},
        "n_features": model.n_features,
        "models": [_model_dict(m) for m in model.models],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path: str | Path) -> MultiOutputModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    vocab = LabelVocabulary(
        names=tuple(doc["vocab"]["names"]), weather_count=doc["vocab"]["weather_count"]
    )
    return MultiOutputModel(
        spec=LearnerSpec(kind=doc["learner"]["kind"], params=doc["learner"]["params"]),
        vocab=vocab,
        models=[_model_from_dict(m) for m in doc["models"]],
        n_features=doc["n_features"],
    )
