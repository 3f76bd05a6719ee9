"""Bit-identity of the flat-array tree learner against the recursive
reference in reference_tree.py, for every learner built on it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_tree as ref
from canopy.classical import forest_fit, gbm_fit, tree_fit
from canopy.data import make_rng

# (n samples, n features, data seed, decimals kept, constant columns,
# labels); keeping few decimals gives tied feature values. Up to 12 features
# lets the sqrt rule draw 3 of them, and constant columns (0, 2, 4, ...)
# make the random rule skip their cut-point draws.
CASES = st.tuples(
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
    st.integers(0, 4),
    st.sampled_from(["binary", "single-positive", "multiclass"]),
)
EXAMPLES = [
    (1, 2, 0, 1, False, "binary"),
    (2, 2, 1, 1, False, "binary"),
    (2, 1, 2, 0, True, "binary"),
    (12, 3, 3, 0, True, "single-positive"),
    (25, 4, 4, 1, False, "multiclass"),
    (30, 12, 5, 1, 4, "binary"),
    (20, 9, 6, 0, 3, "multiclass"),
    # cv scale: hundreds of samples, deep partitions, values rounded to 0-1
    # decimals so nearly every feature has long runs of ties
    (300, 24, 7, 1, 2, "binary"),
    (667, 24, 8, 0, 0, "multiclass"),
    (450, 12, 9, 1, 4, "single-positive"),
    (200, 5, 10, 0, 1, "binary"),
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
    X[:, 0 : 2 * constant : 2] = 0.5
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


@settings(max_examples=60, deadline=None)
@example(seed=0, bounds=[])
@given(
    seed=st.integers(0, 2**32 - 1),
    bounds=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1e6)), min_size=0, max_size=12
    ),
)
def test_uniform_over_arrays_matches_scalar_draws(seed, bounds):
    """The random cut-point rule draws a node's cuts as lo + span * random(k);
    on this platform that must give the bits of one uniform() call over the
    arrays and of one scalar uniform() per feature, and consume as much of
    the stream."""
    lo = np.array([a for a, _ in bounds])
    hi = np.array([a + w for a, w in bounds])
    batch, single, raw = make_rng(seed), make_rng(seed), make_rng(seed)
    drawn = batch.uniform(lo, hi)
    one_by_one = np.array([single.uniform(a, b) for a, b in zip(lo, hi)], dtype=np.float64)
    assert_bits(drawn, one_by_one)
    assert_bits(lo + (hi - lo) * raw.random(len(lo)), drawn)
    assert batch.random() == single.random() == raw.random()


@pytest.mark.parametrize("column", [[0.0, 1.0, np.inf], [0.0, np.nan, 1.0], [-1e308, 0.0, 1e308]])
@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_random_rule_rejects_a_range_that_is_not_finite(column, criterion):
    """A cut-point range that is not finite fails as rng.uniform fails on it."""
    X = np.column_stack([column, [0.0, 1.0, 2.0]])
    y = np.array([0, 1, 0])
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match="Range exceeds"):
        tree_fit(X, y if criterion == "gini" else y * 1.0, criterion=criterion, cutpoint="random")


def test_best_rule_with_every_score_infinite():
    """Squares that overflow make every boundary score inf; the split still
    goes to the first boundary, as in the reference."""
    X = np.array([[0.0], [0.0], [1.0]])
    y = np.array([1e154, 1.0, 1.3e154])
    queries = np.array([[0.0], [0.3], [0.7], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = tree_fit(X, y, criterion="mse"), ref.tree_fit(X, y, criterion="mse")
    assert_bits(got.predict_value(queries), want.predict_value(queries))


@pytest.mark.parametrize("criterion", ["gini", "mse"])
@pytest.mark.parametrize("seed", range(12))
def test_mirrored_tied_groups(criterion, seed):
    """Four tied groups, the outer two and the inner two holding the same
    targets: the cuts at 0.5 and 2.5 score equal in exact arithmetic, so the
    order in which the sums add up decides between them. Tied rows must add
    up in sample order, as in the reference."""
    rng = np.random.default_rng(seed)
    outer, inner = rng.normal(size=40), rng.normal(size=40)
    y = np.concatenate([outer, inner, rng.permutation(inner), rng.permutation(outer)])
    if criterion == "gini":
        y = (y > 0).astype(np.int64)
    X = np.repeat([0.0, 1.0, 2.0, 3.0], 40)[:, None]
    order = rng.permutation(160)
    X, y = X[order], y[order]
    queries = np.array([[-1.0], [0.5], [1.5], [2.5], [4.0]])
    kw = dict(criterion=criterion, max_depth=1)  # deeper trees end in the same leaves
    got, want = tree_fit(X, y, **kw), ref.tree_fit(X, y, **kw)
    assert_bits(got.predict(queries), want.predict(queries))


@pytest.mark.parametrize("column", [[0.0, 1.0, 2.0, np.inf], [-1e308, 0.0, 1e308, 1.5e308]])
@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_midpoint_that_separates_nothing_ends_the_node(column, criterion):
    """The best cut lies between the last two values, and their midpoint is
    inf: it would send every sample left forever. The node is a leaf."""
    X = np.array(column)[:, None]
    y = np.array([0, 0, 0, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        tree = tree_fit(X, y if criterion == "gini" else y * 1.0, criterion=criterion, max_depth=50)
    assert tree.feature[0] == -1 and tree.n_samples[0] == 4
