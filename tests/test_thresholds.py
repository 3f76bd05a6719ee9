import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canopy.data import DataError, LabelMatrix, LabelVocabulary, ProbMatrix, make_rng
from canopy.metrics import sample_fbeta
from canopy.thresholds import (
    DEFAULT_CUTOFF,
    apply_thresholds,
    load_thresholds,
    optimize_thresholds,
    pr_curve,
    save_thresholds,
)

from conftest import Budget, largest_beta, make_vocab


def grid_search_oracle(probs: np.ndarray, truth: np.ndarray, beta: float):
    """Exhaustive search over the cross-product of per-class candidate
    cutoffs (the distinct observed scores), maximizing sample F-beta."""
    k = probs.shape[1]
    vocab = make_vocab(k)
    t = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
    candidates = [np.unique(probs[:, j]) for j in range(k)]
    best = -1.0
    for combo in itertools.product(*candidates):
        pred = LabelMatrix(
            values=(probs >= np.array(combo)[None, :]).astype(np.int8), vocab=vocab
        )
        best = max(best, sample_fbeta(pred, t, beta))
    return best


def per_class_exhaustive(scores: np.ndarray, truth: np.ndarray, beta: float):
    """Best binary F-beta and smallest argmax cutoff for one label."""
    best_s, best_t = -1.0, None
    b2 = beta * beta
    for th in np.unique(scores):
        pred = scores >= th
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = int((~pred & truth).sum())
        den = (1 + b2) * tp + fp + b2 * fn
        s = (1 + b2) * tp / den if den else 0.0
        if s > best_s:
            best_s, best_t = s, float(th)
    return best_s, best_t


class TestPrCurve:
    def test_enumerated_four_point_example(self):
        curve = pr_curve([0.1, 0.35, 0.4, 0.8], [0, 1, 0, 1])
        by_threshold = dict(zip(curve.thresholds, zip(curve.precision, curve.recall)))
        assert by_threshold[0.8] == (1.0, 0.5)
        assert by_threshold[0.35] == (pytest.approx(2 / 3), 1.0)
        assert curve.positive_count == 2
        # sentinel 0 plus the four distinct scores
        assert curve.thresholds.tolist() == [0.0, 0.1, 0.35, 0.4, 0.8]

    def test_thresholds_increase_and_recall_decreases(self):
        rng = make_rng(0)
        scores = rng.random(40)
        truth = rng.random(40) < 0.3
        truth[0] = True
        curve = pr_curve(scores, truth)
        assert (np.diff(curve.thresholds) > 0).all()
        assert (np.diff(curve.recall) <= 0).all()

    def test_separable_scores_reach_perfect_point(self):
        curve = pr_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert ((curve.precision == 1) & (curve.recall == 1)).any()

    def test_constant_scores_single_full_recall_point(self):
        curve = pr_curve([0.4, 0.4, 0.4], [1, 0, 1])
        assert len(curve.thresholds) == 2  # sentinel 0 and the single score
        assert (curve.recall == 1).all()

    def test_errors(self):
        with pytest.raises(ValueError, match="positive"):
            pr_curve([0.1, 0.2], [0, 0])
        with pytest.raises(ValueError, match="NaN"):
            pr_curve([0.1, np.nan], [0, 1])


class TestApplyThresholds:
    def test_floor_and_ceiling(self):
        rng = make_rng(1)
        probs = ProbMatrix(values=rng.random((6, 3)) * 0.98, vocab=make_vocab(3))
        assert apply_thresholds(probs, [0.0, 0.0, 0.0]).values.all()
        assert not apply_thresholds(probs, [1.0, 1.0, 1.0]).values.any()

    def test_inclusive_at_the_cutoff(self):
        probs = ProbMatrix(values=np.array([[0.157288]]), vocab=make_vocab(1))
        assert apply_thresholds(probs, [0.157288]).values[0, 0] == 1

    def test_raising_a_cutoff_only_removes_positives(self):
        rng = make_rng(2)
        probs = ProbMatrix(values=rng.random((20, 4)), vocab=make_vocab(4))
        low = apply_thresholds(probs, [0.3, 0.3, 0.3, 0.3]).values
        high = apply_thresholds(probs, [0.3, 0.7, 0.3, 0.3]).values
        assert (high <= low).all()
        assert (high[:, [0, 2, 3]] == low[:, [0, 2, 3]]).all()

    @pytest.mark.parametrize("cutoffs, got", [([0.5, 0.5], 2), ([[0.5] * 2] * 2, 4), (0.5, 1)])
    def test_wrong_length(self, tmp_path, cutoffs, got):
        """apply_thresholds and save_thresholds share one check, which
        flattens the cutoffs first."""
        probs = ProbMatrix(values=np.zeros((2, 3)), vocab=make_vocab(3))
        message = f"^expected 3 cutoffs, got {got}$"
        with pytest.raises(ValueError, match=message):
            apply_thresholds(probs, cutoffs)
        with pytest.raises(ValueError, match=message):
            save_thresholds(tmp_path / "th.csv", make_vocab(3), cutoffs)
        assert not (tmp_path / "th.csv").exists()


class TestOptimizeThresholds:
    def test_attained_optimum_returns_one(self):
        vocab = make_vocab(2)
        truth = LabelMatrix(values=np.array([[1, 0], [0, 1], [1, 1]]), vocab=vocab)
        probs = ProbMatrix(
            values=np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.95]]), vocab=vocab
        )
        cutoffs, score = optimize_thresholds(probs, truth, beta=2.0, mode="coordinate")
        assert score == pytest.approx(1.0)
        assert (apply_thresholds(probs, cutoffs).values == truth.values).all()

    def test_single_class_optimal_cutoff_interval(self):
        vocab = make_vocab(1)
        truth = LabelMatrix(values=np.array([[0], [1], [1]]), vocab=vocab)
        probs = ProbMatrix(values=np.array([[0.2], [0.6], [0.7]]), vocab=vocab)
        cutoffs, score = optimize_thresholds(probs, truth, beta=2.0, mode="per-class")
        assert score == pytest.approx(1.0)
        assert 0.2 < cutoffs[0] <= 0.6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    @example(1307)  # n=8, k=3: a coordinate-wise optimum below the grid optimum
    def test_coordinate_mode_reaches_a_coordinate_wise_optimum(self, seed):
        """Cyclic coordinate ascent promises a coordinate-wise optimum, not the
        global one: no single label's cutoff can move to a better score."""
        rng = make_rng(seed)
        n = int(rng.integers(4, 31))
        k = int(rng.integers(1, 4))
        truth = rng.random((n, k)) < rng.uniform(0.15, 0.7, size=k)
        for j in range(k):
            if not truth[:, j].any():
                truth[int(rng.integers(0, n)), j] = True
        probs = rng.random((n, k))
        vocab = make_vocab(k)
        pm = ProbMatrix(values=probs, vocab=vocab)
        tm = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
        cutoffs, score = optimize_thresholds(pm, tm, beta=2.0, mode="coordinate")

        def f2_at(c):
            return sample_fbeta(apply_thresholds(pm, c), tm, 2.0)

        grid = grid_search_oracle(probs, truth, 2.0)
        assert score == pytest.approx(f2_at(cutoffs), abs=1e-12)
        assert score >= f2_at(np.full(k, 0.5)) - 1e-12
        assert score <= grid + 1e-12
        for j in range(k):
            for th in np.unique(probs[:, j]):
                moved = cutoffs.copy()
                moved[j] = th
                assert f2_at(moved) <= score + 1e-12
        if k == 1:
            assert score == pytest.approx(grid, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_per_class_mode_matches_exhaustive_search(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(4, 25))
        k = int(rng.integers(1, 4))
        truth = rng.random((n, k)) < 0.4
        for j in range(k):
            if not truth[:, j].any():
                truth[int(rng.integers(0, n)), j] = True
        probs = rng.random((n, k))
        vocab = make_vocab(k)
        cutoffs, _ = optimize_thresholds(
            ProbMatrix(values=probs, vocab=vocab),
            LabelMatrix(values=truth.astype(np.int8), vocab=vocab),
            beta=2.0,
            mode="per-class",
        )
        for j in range(k):
            _, want = per_class_exhaustive(probs[:, j], truth[:, j], 2.0)
            assert cutoffs[j] == want

    def test_never_below_uniform_half(self):
        rng = make_rng(9)
        for trial in range(20):
            n, k = int(rng.integers(4, 25)), int(rng.integers(1, 4))
            truth = rng.random((n, k)) < 0.4
            for j in range(k):
                if not truth[:, j].any():
                    truth[int(rng.integers(0, n)), j] = True
            vocab = make_vocab(k)
            pm = ProbMatrix(values=rng.random((n, k)), vocab=vocab)
            tm = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
            baseline = sample_fbeta(apply_thresholds(pm, np.full(k, 0.5)), tm, 2.0)
            _, score = optimize_thresholds(pm, tm, beta=2.0, mode="coordinate")
            assert score >= baseline - 1e-15

    @pytest.mark.parametrize("shape", ["noisy", "plateau"])
    def test_paper_scale_coordinate_tuning_stays_n_log_n(self, shape):
        """40,479 x 17 with 6-decimal scores, ~40k distinct per label: one
        sort per label and O(n) per label visit keep coordinate mode, then
        per-class mode and one pr_curve per label, far under budget, where
        rescoring every candidate at O(n) would take many minutes.
        "plateau" gives 16 labels one positive on top and ~20k rows with no
        positive just below it, all tied with the top cutoff in score."""
        n, k = 40_479, 17
        rng = make_rng(24)
        if shape == "noisy":
            truth = rng.random((n, k)) < rng.uniform(0.002, 0.5, k)
            scores = np.where(truth, 0.6, 0.3) + rng.normal(0.0, 0.35, (n, k))
        else:
            half = n // 2
            truth = np.zeros((n, k), dtype=bool)
            truth[np.arange(k - 1), np.arange(k - 1)] = True
            truth[k - 1:half, k - 1] = True
            scores = np.vstack([rng.uniform(0.0, 0.5, (half, k)),
                                rng.uniform(0.5, 0.9, (n - half, k))])
            scores[np.arange(k - 1), np.arange(k - 1)] = 1.0
            scores[:half, k - 1] = 0.9
        vocab = make_vocab(k)
        pm = ProbMatrix(values=np.round(np.clip(scores, 0.0, 1.0), 6), vocab=vocab)
        tm = LabelMatrix(values=truth.astype(np.int8), vocab=vocab)
        with Budget(10.0):
            cutoffs, score = optimize_thresholds(pm, tm, beta=2.0, mode="coordinate")
            per_class, _ = optimize_thresholds(pm, tm, beta=2.0, mode="per-class")
            curves = [pr_curve(pm.values[:, j], truth[:, j]) for j in range(k)]

        def f2_at(c):
            return sample_fbeta(apply_thresholds(pm, c), tm, 2.0)

        assert score == pytest.approx(f2_at(cutoffs), abs=1e-12)
        assert score >= f2_at(np.full(k, DEFAULT_CUTOFF))
        for j, curve in enumerate(curves):
            distinct = np.unique(pm.values[:, j])
            assert np.array_equal(curve.thresholds[-len(distinct):], distinct)
            assert per_class[j] in curve.thresholds

    def test_zero_positive_class_keeps_default(self):
        vocab = make_vocab(2)
        truth = LabelMatrix(values=np.array([[1, 0], [0, 0], [1, 0]]), vocab=vocab)
        probs = ProbMatrix(values=np.array([[0.9, 0.3], [0.1, 0.4], [0.8, 0.2]]), vocab=vocab)
        cutoffs, _ = optimize_thresholds(probs, truth, beta=2.0)
        assert cutoffs[1] == 0.5

    @pytest.mark.parametrize("mode", ["coordinate", "per-class"])
    @pytest.mark.parametrize(
        "beta", [0.0, -2.0, float("nan"), float("inf"), 1e200, pytest.param(10**400, id="10**400")]
    )
    def test_bad_beta_rejected_before_any_work(self, mode, beta):
        vocab = make_vocab(1)
        probs = ProbMatrix(values=np.zeros((0, 1)), vocab=vocab)  # empty: any work would fail
        truth = LabelMatrix(values=np.zeros((0, 1)), vocab=vocab)
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            optimize_thresholds(probs, truth, beta=beta, mode=mode)

    @pytest.mark.parametrize("mode", ["coordinate", "per-class"])
    def test_largest_accepted_beta_tunes_finite_cutoffs(self, mode):
        """F-beta stays finite, so the sweep moves cutoffs away from 0.5."""
        rng = make_rng(12)
        vocab = make_vocab(3)
        probs = ProbMatrix(values=rng.random((30, 3)), vocab=vocab)
        truth = LabelMatrix(values=(rng.random((30, 3)) < 0.4).astype(np.int8), vocab=vocab)
        cutoffs, score = optimize_thresholds(probs, truth, beta=largest_beta(), mode=mode)
        assert 0.0 < score <= 1.0
        assert ((cutoffs >= 0.0) & (cutoffs <= 1.0)).all() and (cutoffs != 0.5).any()

    @pytest.mark.parametrize("mode", ["coordinate", "per-class"])
    def test_different_vocabularies_rejected(self, mode):
        probs = ProbMatrix(values=np.full((2, 2), 0.7), vocab=LabelVocabulary(names=("x", "y")))
        truth = LabelMatrix(values=np.ones((2, 2)), vocab=LabelVocabulary(names=("p", "q")))
        with pytest.raises(ValueError, match="pred and truth use different vocabularies"):
            optimize_thresholds(probs, truth, mode=mode)

    def test_empty_dataset_rejected(self):
        vocab = make_vocab(1)
        probs = ProbMatrix(values=np.zeros((0, 1)), vocab=vocab)
        truth = LabelMatrix(values=np.zeros((0, 1)), vocab=vocab)
        with pytest.raises(ValueError, match="empty"):
            optimize_thresholds(probs, truth)


class TestThresholdIo:
    def test_round_trip(self, tmp_path):
        vocab = make_vocab(3)
        cutoffs = np.array([0.157288, 0.5, 0.042642])
        path = tmp_path / "th.csv"
        save_thresholds(path, vocab, cutoffs)
        loaded = load_thresholds(path, vocab)
        assert loaded.tolist() == pytest.approx(cutoffs.tolist(), abs=1e-9)
        text = path.read_text()
        assert text.splitlines()[0] == "label,threshold"
        assert "0.157288" in text

    def test_other_header_refused(self, tmp_path):
        """save_thresholds and load_thresholds share one header."""
        vocab = make_vocab(2)
        path = tmp_path / "th.csv"
        path.write_text("label,cutoff\nlabel_0,0.5\nlabel_1,0.5\n")
        with pytest.raises(DataError, match="label,threshold"):
            load_thresholds(path, vocab)
