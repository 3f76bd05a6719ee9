"""The sorted count sweep and the carried per-row counts in canopy.thresholds
against the per-candidate brute force in reference_thresholds: byte-identical
cutoffs, scores and precision-recall curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.data import LabelMatrix, ProbMatrix, make_rng
from canopy.thresholds import optimize_thresholds, pr_curve

from conftest import make_vocab
from reference_thresholds import reference_optimize_thresholds, reference_pr_curve


@st.composite
def problems(draw):
    """Quantized scores (many ties, 0 and 1 included) with per-column shapes:
    free, constant scores, a single positive or no positive; optionally an
    all-zero truth row."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    levels = draw(st.sampled_from([1, 2, 3, 10, 10**6]))
    cells = st.lists(st.integers(0, levels), min_size=n * k, max_size=n * k)
    scores = np.array(draw(cells), dtype=np.float64).reshape(n, k) / levels
    truth = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)))
    truth = truth.reshape(n, k)
    for j in range(k):
        shape = draw(st.sampled_from(["free", "constant", "single positive", "no positive"]))
        if shape == "constant":
            scores[:, j] = scores[0, j]
        elif shape == "single positive":
            truth[:, j] = False
            truth[draw(st.integers(0, n - 1)), j] = True
        elif shape == "no positive":
            truth[:, j] = False
    if draw(st.booleans()):
        truth[draw(st.integers(0, n - 1))] = False
    beta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return scores, truth, beta


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(problems())
def test_sweep_matches_per_candidate_oracle(problem):
    scores, truth, beta = problem
    vocab = make_vocab(scores.shape[1])
    probs = ProbMatrix(values=scores, vocab=vocab)
    labels = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
    for mode in ("coordinate", "per-class"):
        cutoffs, score = optimize_thresholds(probs, labels, beta=beta, mode=mode)
        want_cutoffs, want_score = reference_optimize_thresholds(probs, labels, beta, mode)
        assert same_bytes(cutoffs, want_cutoffs), mode
        assert type(score) is float and same_bytes(score, want_score), mode
    for j in np.flatnonzero(truth.any(axis=0)):
        got = pr_curve(scores[:, j], truth[:, j])
        want = reference_pr_curve(scores[:, j], truth[:, j])
        assert got.positive_count == want.positive_count
        for field in ("thresholds", "precision", "recall"):
            assert same_bytes(getattr(got, field), getattr(want, field)), field


def desk_problem(seed, n, k, levels):
    """Noisy scores for ``n`` rows and ``k`` labels, quantized to ``levels``
    steps (0: continuous), with a constant column 0, a single-positive
    label 1, a column 2 scoring below 0.5 everywhere (the starting
    prediction is then no candidate's) and an all-zero truth row."""
    rng = make_rng(seed)
    truth = rng.random((n, k)) < rng.uniform(0.05, 0.5, k)
    scores = np.clip(np.where(truth, 0.6, 0.3) + rng.normal(0.0, 0.35, (n, k)), 0.0, 1.0)
    if levels:
        scores = np.round(scores * levels) / levels
    scores[:, 0] = scores[0, 0]
    truth[:, 1] = False
    truth[rng.integers(n), 1] = True
    scores[:, 2] *= 0.49
    truth[rng.integers(n)] = False
    return scores, truth


@pytest.mark.parametrize("seed,n,k,levels,beta", [
    (0, 300, 17, 20, 2.0),
    (1, 100, 8, 0, 1.0),
    (2, 200, 12, 5, 0.5),
    (3, 250, 17, 0, 2.0),
])
def test_coordinate_mode_matches_oracle_at_desk_shapes(seed, n, k, levels, beta):
    """The per-row counts carried across many labels and several passes give
    the oracle's bytes; each case needs a second pass to converge."""
    scores, truth = desk_problem(seed, n, k, levels)
    vocab = make_vocab(k)
    probs = ProbMatrix(values=scores, vocab=vocab)
    labels = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
    cutoffs, score = optimize_thresholds(probs, labels, beta=beta)
    want_cutoffs, want_score = reference_optimize_thresholds(probs, labels, beta)
    assert same_bytes(cutoffs, want_cutoffs)
    assert type(score) is float and same_bytes(score, want_score)
    one_pass = reference_optimize_thresholds(probs, labels, beta, max_passes=1)
    assert not (same_bytes(one_pass[0], want_cutoffs) and same_bytes(one_pass[1], want_score))
