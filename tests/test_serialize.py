"""Saved models and checkpoints: byte-identical to the reference encoders in
``reference_serialize.py``, stable under load-then-save, bit-identical in
their predictions after a round trip, and every damaged document a
ValueError that starts with the file's path."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_serialize as ref
from canopy.classical import (
    LearnerSpec,
    fit_multioutput,
    load_model,
    predict_multioutput,
    save_model,
)
from canopy.data import FeatureMatrix, LabelMatrix, make_rng
from canopy.nn import Network, NetworkSpec, load_checkpoint, save_checkpoint

from conftest import make_vocab

# every model kind and tree rule, with settings that keep a JSON int an int
LEARNERS = [
    ("lda", {}),
    ("lda", {"reg_lambda": 1, "k_components": 1}),
    ("tree", {"max_depth": 3}),
    ("tree", {"cutpoint": "random", "feature_rule": "sqrt"}),
    ("rf", {"n_estimators": 4}),
    ("rf", {"n_estimators": 2, "bootstrap": False, "feature_rule": "all"}),
    ("extra", {"n_estimators": 3, "max_depth": 2}),
    ("gbm", {"n_stages": 3}),
    ("gbm", {"n_stages": 3, "gamma_mode": "stage", "learning_rate": 1}),
]


def make_problem(n: int, seed: int):
    """Features and four labels: balanced, all 0, all 1 (constant models),
    and one with two positives (bootstrap trees that miss both see one class)."""
    rng = make_rng(seed)
    X = rng.normal(size=(n, 3)).round(3)
    rare = np.zeros(n, dtype=np.int8)
    rare[rng.choice(n, size=2, replace=False)] = 1
    truth = np.column_stack([X[:, 0] > np.median(X[:, 0]), np.zeros(n), np.ones(n), rare])
    labels = LabelMatrix(values=truth.astype(np.int8), vocab=make_vocab(4))
    return FeatureMatrix(values=X), labels


def fit(kind, params, n=24, seed=0):
    features, labels = make_problem(n, seed)
    spec = LearnerSpec(kind=kind, params=params)
    return features, fit_multioutput(spec, features, labels, seed=seed)


def assert_stable(path, load, save, predict, original):
    """save(load(path)) writes the same bytes, and the loaded object predicts
    the same bits as ``original``."""
    loaded = load(path)
    again = path.with_name("again.json")
    save(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    assert np.array_equal(predict(loaded), predict(original))


# ---------------------------------------------------------------------------
# classical models
# ---------------------------------------------------------------------------


def check_model(tmp, features, model):
    save_model(tmp / "model.json", model)
    ref.save_model(tmp / "ref.json", model)
    assert (tmp / "model.json").read_bytes() == (tmp / "ref.json").read_bytes()
    assert_stable(
        tmp / "model.json", load_model, save_model,
        lambda m: predict_multioutput(m, features).values, model,
    )


@pytest.mark.parametrize("kind,params", LEARNERS)
def test_model_file_matches_reference(tmp_path, kind, params):
    check_model(tmp_path, *fit(kind, params))


def test_bootstrap_tree_that_sees_one_class(tmp_path):
    features, model = fit("rf", {"n_estimators": 12}, n=16, seed=5)
    assert any(len(t.classes) == 1 for t in model.models[3].trees)
    check_model(tmp_path, features, model)


@settings(max_examples=30, deadline=None)
@given(
    learner=st.sampled_from(LEARNERS),
    n=st.integers(6, 30),
    seed=st.integers(0, 2**31 - 1),
)
def test_model_round_trip_property(tmp_path_factory, learner, n, seed):
    check_model(tmp_path_factory.mktemp("model"), *fit(*learner, n=n, seed=seed))


# ---------------------------------------------------------------------------
# network checkpoints
# ---------------------------------------------------------------------------

NETWORKS = [
    dict(hidden=(6,), batch_norm=True, dropout=0.25, loss="bce"),
    dict(hidden=(5, 3), hidden_activation="sigmoid", loss="hybrid", weather_count=2),
    dict(hidden=(4,), batch_norm=True, loss="softmax_ce"),
]


def make_network(seed: int, **spec) -> tuple[Network, np.ndarray]:
    """A network whose batch-norm statistics have moved off their start."""
    net = Network.init(NetworkSpec(in_dim=5, out_dim=4, **spec), seed=seed)
    rng = make_rng(seed)
    net.forward(rng.normal(size=(12, 5)), train=True, rng=rng)
    return net, rng.normal(size=(7, 5))


def check_checkpoint(tmp, net, x):
    meta = {"seed": 11, "n_models": 2}
    save_checkpoint(tmp / "ckpt.json", net, meta)
    ref.save_checkpoint(tmp / "ref.json", net, meta)
    assert (tmp / "ckpt.json").read_bytes() == (tmp / "ref.json").read_bytes()
    assert load_checkpoint(tmp / "ckpt.json")[1] == meta
    assert_stable(
        tmp / "ckpt.json",
        lambda p: load_checkpoint(p)[0],
        lambda p, loaded: save_checkpoint(p, loaded, meta),
        lambda n: n.predict_proba(x), net,
    )


@pytest.mark.parametrize("spec", NETWORKS)
def test_checkpoint_matches_reference(tmp_path, spec):
    check_checkpoint(tmp_path, *make_network(3, **spec))


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(NETWORKS), seed=st.integers(0, 2**31 - 1))
def test_checkpoint_round_trip_property(tmp_path_factory, spec, seed):
    check_checkpoint(tmp_path_factory.mktemp("ckpt"), *make_network(seed, **spec))


# ---------------------------------------------------------------------------
# damaged documents
# ---------------------------------------------------------------------------


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _del(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    del doc[keys[-1]]


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


TREE = ("models", 0)  # label 0 is balanced, so its tree splits
STAGE_TREE = ("models", 0, "stages", 0, "tree")
FOREST_TREE = ("models", 0, "trees", 1)

# name -> (learner of the saved model, or None for a checkpoint; damage)
DAMAGE = {
    "truncated model": ("tree", lambda raw, doc: raw[: len(raw) // 2]),
    "truncated checkpoint": (None, lambda raw, doc: raw[:-1]),
    "empty model": ("tree", lambda raw, doc: b""),
    "empty checkpoint": (None, lambda raw, doc: b""),
    "list model": ("tree", lambda raw, doc: b"[]"),
    "list checkpoint": (None, lambda raw, doc: b"[]"),
    "string model": ("tree", lambda raw, doc: b'"canopy-model"'),
    "not utf-8": ("tree", lambda raw, doc: b"\xff" + raw),
    "missing vocab": ("tree", lambda raw, doc: _del(doc, ("vocab",))),
    "missing node array": ("tree", lambda raw, doc: _del(doc, (*TREE, "left"))),
    "missing gamma": ("gbm", lambda raw, doc: _del(doc, ("models", 0, "stages", 0, "gamma"))),
    "missing layers": (None, lambda raw, doc: _del(doc, ("layers",))),
    "missing layer weights": (None, lambda raw, doc: _del(doc, ("layers", 0, "W"))),
    "models not a list": ("tree", lambda raw, doc: _set(doc, ("models",), 5)),
    "vocab a list": ("tree", lambda raw, doc: _set(doc, ("vocab",), [])),
    "n_features a string": ("tree", lambda raw, doc: _set(doc, ("n_features",), "3")),
    "params a list": ("tree", lambda raw, doc: _set(doc, ("learner", "params"), [])),
    "model a string": ("tree", lambda raw, doc: _set(doc, TREE, "tree")),
    "feature a string": ("tree", lambda raw, doc: _set(doc, (*TREE, "feature"), "0")),
    "threshold of strings": ("tree", lambda raw, doc: _set(
        doc, (*TREE, "threshold"), ["a"] * len(_get(doc, (*TREE, "threshold"))))),
    "float child ids": ("tree", lambda raw, doc: _set(
        doc, (*TREE, "left"), [float(v) for v in _get(doc, (*TREE, "left"))])),
    "probability a string": ("tree", lambda raw, doc: _set(doc, ("models", 1, "probability"), "0")),
    "gamma a string": ("gbm", lambda raw, doc: _set(doc, ("models", 0, "stages", 0, "gamma"), "1")),
    "bootstrap a string": ("rf", lambda raw, doc: _set(doc, ("models", 0, "bootstrap"), "yes")),
    "spec a list": (None, lambda raw, doc: _set(doc, ("spec",), [])),
    "layers not a list": (None, lambda raw, doc: _set(doc, ("layers",), 5)),
    "unknown spec key": (None, lambda raw, doc: _set(doc, ("spec", "width"), 3)),
    "unknown model kind": ("tree", lambda raw, doc: _set(doc, (*TREE, "kind"), "svm")),
    "unknown learner kind": ("tree", lambda raw, doc: _set(doc, ("learner", "kind"), "svm")),
    "unknown layer kind": (None, lambda raw, doc: _set(doc, ("layers", 0, "kind"), "conv")),
    "short node array": ("tree", lambda raw, doc: _get(doc, (*TREE, "left")).pop()),
    "short value array": ("tree", lambda raw, doc: _get(doc, (*TREE, "value")).pop()),
    "short stage tree": ("gbm", lambda raw, doc: _get(doc, (*STAGE_TREE, "right")).pop()),
    "short bias": (None, lambda raw, doc: _get(doc, ("layers", 0, "b")).pop()),
    "non-finite running mean": (None, lambda raw, doc: _set(
        doc, ("layers", 1, "running_mean", 0), float("nan"))),
    "dropped batch-norm layer": (None, lambda raw, doc: _get(doc, ("layers",)).pop(1)),
    "dropped dropout layer": (None, lambda raw, doc: _get(doc, ("layers",)).pop(3)),
    "hidden width disagrees with spec": (None, lambda raw, doc: _set(doc, ("spec", "hidden"), [7])),
    "activation disagrees with spec": (None, lambda raw, doc: _set(
        doc, ("layers", 2, "name"), "sigmoid")),
    "empty tree": ("tree", lambda raw, doc: [_set(doc, (*TREE, a), []) for a in
                                             ("feature", "threshold", "left", "right",
                                              "value", "n_samples")]),
    "child out of range": ("tree", lambda raw, doc: _set(doc, (*TREE, "left", 0), 999)),
    "negative child": ("tree", lambda raw, doc: _set(doc, (*TREE, "right", 0), -1)),
    "child loops to its parent": ("tree", lambda raw, doc: _set(doc, (*TREE, "left", 0), 0)),
    "forest child out of range": ("rf", lambda raw, doc: _set(doc, (*FOREST_TREE, "right", 0), 10**6)),
    "feature out of range": ("tree", lambda raw, doc: _set(doc, (*TREE, "feature", 0), 3)),
    "fewer models than labels": ("tree", lambda raw, doc: _get(doc, ("models",)).pop()),
    "old model version": ("tree", lambda raw, doc: _set(doc, ("version",), 1)),
    "other format": (None, lambda raw, doc: _set(doc, ("format",), "canopy-model")),
    "meta a number": (None, lambda raw, doc: _set(doc, ("meta",), 5)),
    "meta a list": (None, lambda raw, doc: _set(doc, ("meta",), [])),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_document_is_a_value_error_naming_the_file(tmp_path, case):
    learner, damage = DAMAGE[case]
    path = tmp_path / "saved.json"
    if learner is None:
        save_checkpoint(path, make_network(0, **NETWORKS[0])[0], {"seed": 0})
        load = load_checkpoint
    else:
        params = {"n_estimators": 3} if learner == "rf" else {}
        save_model(path, fit(learner, params, n=30, seed=1)[1])
        load = load_model
    raw = path.read_bytes()
    doc = json.loads(raw)
    broken = damage(raw, doc)
    path.write_bytes(broken if isinstance(broken, bytes) else json.dumps(doc).encode())
    with pytest.raises(ValueError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message


def test_damage_table_starts_from_a_full_hidden_block(tmp_path):
    """The layer cases above drop or edit the layer they name."""
    save_checkpoint(tmp_path / "c.json", make_network(0, **NETWORKS[0])[0])
    kinds = [d["kind"] for d in json.loads((tmp_path / "c.json").read_text())["layers"]]
    assert kinds == ["dense", "batch_norm", "activation", "dropout", "dense"]


def test_damage_table_starts_from_trees_that_split(tmp_path):
    """The node cases above damage a split, not a lone leaf."""
    for learner, keys in (("tree", TREE), ("gbm", STAGE_TREE), ("rf", FOREST_TREE)):
        params = {"n_estimators": 3} if learner == "rf" else {}
        save_model(tmp_path / "m.json", fit(learner, params, n=30, seed=1)[1])
        tree = _get(json.loads((tmp_path / "m.json").read_text()), keys)
        assert tree["feature"][0] >= 0 and tree["left"][0] == 1
