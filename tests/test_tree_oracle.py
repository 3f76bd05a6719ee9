"""Bit-identity of the flat-array tree learner against the recursive
reference in reference_tree.py, for every learner built on it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_tree as ref
from canopy.classical import forest_fit, gbm_fit, tree_fit

# (n samples, n features, data seed, decimals kept, constant column, labels);
# keeping few decimals gives tied feature values
CASES = st.tuples(
    st.integers(1, 30),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from(["binary", "single-positive", "multiclass"]),
)
EXAMPLES = [
    (1, 2, 0, 1, False, "binary"),
    (2, 2, 1, 1, False, "binary"),
    (2, 1, 2, 0, True, "binary"),
    (12, 3, 3, 0, True, "single-positive"),
    (25, 4, 4, 1, False, "multiclass"),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return settings(max_examples=40, deadline=None)(given(case=CASES)(test))


def make_problem(case):
    """(X, class labels, real targets, query rows) for one case."""
    n, f, seed, decimals, constant, labels = case
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f)).round(decimals)
    if constant:
        X[:, 0] = 0.5
    if labels == "binary":
        y = rng.integers(0, 2, size=n)
    elif labels == "single-positive":
        y = np.zeros(n, dtype=np.int64)
        y[rng.integers(n)] = 1
    else:
        y = rng.integers(0, 4, size=n)
    y_real = rng.normal(size=n).round(decimals)
    queries = np.vstack([X, rng.normal(size=(10, f)).round(decimals)])
    return X, y, y_real, queries


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("criterion", ["gini", "mse"])
@pytest.mark.parametrize("cutpoint", ["best", "random"])
@pytest.mark.parametrize("feature_rule", ["all", "sqrt"])
@with_examples
def test_tree_matches_reference(criterion, cutpoint, feature_rule, case):
    X, y, y_real, queries = make_problem(case)
    target = y if criterion == "gini" else y_real
    kw = dict(criterion=criterion, cutpoint=cutpoint, feature_rule=feature_rule, seed=case[2])
    got, want = tree_fit(X, target, **kw), ref.tree_fit(X, target, **kw)
    assert_bits(got.predict(queries), want.predict(queries))
    assert_bits(got.predict_value(queries), want.predict_value(queries))
    if criterion == "gini":
        assert_bits(got.predict_proba(queries), want.predict_proba(queries))


@pytest.mark.parametrize("variant", ["rf", "extra"])
@with_examples
def test_forest_matches_reference(variant, case):
    X, y, _, queries = make_problem(case)
    if len(X) < 2:
        with pytest.raises(ValueError, match="at least 2"):
            forest_fit(X, y, n_estimators=4, variant=variant, seed=case[2])
        return
    got = forest_fit(X, y, n_estimators=4, variant=variant, seed=case[2])
    want = ref.forest_fit(X, y, n_estimators=4, variant=variant, seed=case[2])
    assert_bits(got.predict(queries), want.predict(queries))
    assert_bits(got.predict_proba(queries), want.predict_proba(queries))
    for a, b in zip(got.trees, want.trees):
        assert_bits(a.predict_proba(queries), b.predict_proba(queries))


@pytest.mark.parametrize("gamma_mode", ["leaf", "stage"])
@pytest.mark.parametrize("loss", ["squared", "logistic"])
@with_examples
def test_gbm_matches_reference(gamma_mode, loss, case):
    X, y, y_real, queries = make_problem(case)
    target = y_real if loss == "squared" else (y > 0).astype(np.float64)
    kw = dict(n_stages=5, learning_rate=0.3, max_depth=3, loss=loss,
              gamma_mode=gamma_mode, seed=case[2])
    got, want = gbm_fit(X, target, **kw), ref.gbm_fit(X, target, **kw)
    assert got.f0 == want.f0
    for (a, ga), (b, gb) in zip(got.stages, want.stages, strict=True):
        assert ga == gb
        assert_bits(a.predict_value(queries), b.predict_value(queries))
    assert_bits(got.predict(queries), want.predict(queries))
    if loss == "logistic":
        assert_bits(got.predict_proba(queries), want.predict_proba(queries))
