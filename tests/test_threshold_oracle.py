"""The sorted count sweep in canopy.thresholds against the per-candidate
brute force in reference_thresholds: byte-identical cutoffs, scores and
precision-recall curves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.data import LabelMatrix, ProbMatrix
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
