import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.data import LabelMatrix, make_rng
from canopy.metrics import (
    SCHEMES,
    averaged,
    confusion,
    fbeta,
    fbeta_from_counts,
    report,
    sample_fbeta,
    subset_accuracy,
)
from canopy.metrics import _seq_sum

from conftest import largest_beta, make_vocab, oracle_averaged, random_label_matrix

# worked example used across the spec of this module:
# truth rows {[1,0,1],[0,1,0]}, pred rows {[1,1,1],[0,0,0]}
TRUTH = LabelMatrix(values=np.array([[1, 0, 1], [0, 1, 0]]), vocab=make_vocab(3))
PRED = LabelMatrix(values=np.array([[1, 1, 1], [0, 0, 0]]), vocab=make_vocab(3))

# for 1e200 and the float above the largest accepted beta, (1 + beta^2)
# times a count of 2**53 overflows, which would make F-beta NaN; 10**400 is
# an int too large for a float at all
BAD_BETAS = [0.0, -2.0, float("nan"), float("inf"), 1e200, np.float64(1e200),
             math.nextafter(largest_beta(), math.inf), pytest.param(10**400, id="10**400")]


class TestConfusion:
    def test_identity_prediction(self):
        c = confusion(TRUTH, TRUTH)
        assert (c.fp == 0).all() and (c.fn == 0).all()

    def test_complement_prediction(self):
        inverted = LabelMatrix(values=1 - TRUTH.values, vocab=TRUTH.vocab)
        c = confusion(inverted, TRUTH)
        assert (c.tp == 0).all() and (c.tn == 0).all()

    def test_hand_counted_cells(self):
        c = confusion(PRED, TRUTH, "per_class")
        assert c.tp.tolist() == [1, 0, 1]
        assert c.fp.tolist() == [0, 1, 0]
        assert c.fn.tolist() == [0, 1, 0]
        assert c.tn.tolist() == [1, 0, 1]

    def test_per_index_totals(self):
        rng = make_rng(0)
        pred = random_label_matrix(rng, 7, 5)
        truth = random_label_matrix(rng, 7, 5)
        per_class = confusion(pred, truth, "per_class")
        assert (per_class.tp + per_class.fp + per_class.fn + per_class.tn == 7).all()
        per_sample = confusion(pred, truth, "per_sample")
        assert (per_sample.tp + per_sample.fp + per_sample.fn + per_sample.tn == 5).all()

    def test_shape_mismatch(self):
        other = random_label_matrix(make_rng(1), 3, 3)
        with pytest.raises(ValueError, match="shape"):
            confusion(PRED, other)


class TestFbeta:
    @given(st.floats(0, 1), st.floats(0.1, 10))
    def test_equal_precision_recall_is_fixed_point(self, x, beta):
        assert fbeta(x, x, beta) == pytest.approx(x, abs=1e-12)

    def test_zero_numerator(self):
        assert fbeta(1.0, 0.0, 2.0) == 0.0
        assert fbeta(0.0, 0.0, 1.0) == 0.0

    def test_reference_scoreboard_clear_row(self):
        # reference scoreboard, best-weather row: P/R reproduce F1 and F2
        assert fbeta(0.960836, 0.964115, 2) == pytest.approx(0.963457, abs=1e-5)
        assert fbeta(0.960836, 0.964115, 1) == pytest.approx(0.962473, abs=1e-5)

    @given(st.floats(0.01, 1), st.floats(0.01, 1))
    def test_f2_harmonic_identity(self, p, r):
        # 1/F2 = 4/(5r) + 1/(5p) whenever p, r > 0
        f2 = fbeta(p, r, 2)
        assert 1.0 / f2 == pytest.approx(4.0 / (5.0 * r) + 1.0 / (5.0 * p), abs=1e-9)


    def test_scalars_give_a_float_and_arrays_match_scalars(self):
        assert type(fbeta(0.5, 0.25, 2.0)) is float
        rng = make_rng(4)
        p, r = rng.random(20), rng.random(20)
        p[:3] = r[:2] = 0.0
        got = fbeta(p, r, 2.0)
        assert got.tolist() == [fbeta(float(a), float(b), 2.0) for a, b in zip(p, r)]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_counts_form_agrees_with_precision_recall_form(self, beta):
        tp, fp, fn = np.meshgrid(np.arange(6), np.arange(6), np.arange(6), indexing="ij")
        got = fbeta_from_counts(tp, fp, fn, beta)
        assert got[0, :, :].max() == 0.0  # no true positive, no credit; 0/0 is 0 too
        p = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp > 0)
        r = np.divide(tp, tp + fn, out=np.zeros(tp.shape), where=tp + fn > 0)
        np.testing.assert_allclose(got, fbeta(p, r, beta), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("beta", BAD_BETAS)
    def test_bad_beta_rejected_by_both_forms(self, beta):
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            fbeta(0.5, 0.5, beta)
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            fbeta_from_counts(1, 1, 1, beta)

    def test_largest_accepted_beta_gives_finite_scores(self):
        beta, big = largest_beta(), 2**52
        p = np.array([0.0, 1e-300, 0.5, 1.0, 1.0])
        r = np.array([1.0, 1.0, 0.25, 1e-300, 1.0])
        assert np.isfinite(fbeta(p, r, beta)).all()
        tp, fp, fn = np.array([[big, 0, 1, big], [big, big, 0, 0], [big, 1, 0, big]])
        counts = fbeta_from_counts(tp, fp, fn, beta)
        assert np.isfinite(counts).all() and counts[0] == 0.5
        for scheme in SCHEMES:
            scores = averaged(PRED, TRUTH, scheme, beta=beta, class_weights=[1 / 3] * 3)
            assert all(math.isfinite(v) for v in scores), scheme


class TestAveraged:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("beta", BAD_BETAS)
    def test_bad_beta_rejected(self, scheme, beta):
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            averaged(PRED, TRUTH, scheme, beta=beta, class_weights=[1 / 3] * 3)

    def test_micro_pooled_counts(self):
        s = averaged(PRED, TRUTH, "micro", beta=2)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)
        assert s.fbeta == pytest.approx(2 / 3)

    def test_macro_mean_of_class_scores(self):
        s = averaged(PRED, TRUTH, "macro", beta=2)
        assert s.fbeta == pytest.approx(2 / 3)

    def test_sample_mean_of_instance_scores(self):
        s = averaged(PRED, TRUTH, "sample", beta=2)
        # instance 1: tp=2, fp=1, fn=0 -> 10/11; instance 2: tp=0 -> 0
        assert s.fbeta == pytest.approx((10 / 11 + 0) / 2)

    def test_weighted_needs_normalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            averaged(PRED, TRUTH, "weighted", beta=2, class_weights=[0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="length"):
            averaged(PRED, TRUTH, "weighted", beta=2, class_weights=[1.0])

    @pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [2.0, -0.5, -0.5]])
    def test_weighted_rejects_nan_or_negative_weights(self, weights):
        # both once passed the sum check: a NaN sum compares False, and
        # [2, -.5, -.5] sums to 1 (it scored 1.5)
        with pytest.raises(ValueError, match="finite and >= 0"):
            averaged(PRED, TRUTH, "weighted", beta=2, class_weights=weights)

    def test_weighted_uniform_equals_macro(self):
        w = [1 / 3] * 3
        assert averaged(PRED, TRUTH, "weighted", 2.0, w).fbeta == pytest.approx(
            averaged(PRED, TRUTH, "macro", 2.0).fbeta
        )

    def test_macro_equals_micro_on_symmetric_counts(self):
        # constructed so every class has identical (tp, fp, fn)
        truth = np.tile([[1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0]], (1, 1))
        pred = np.tile([[1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 0, 0]], (1, 1))
        vocab = make_vocab(3)
        t = LabelMatrix(values=truth, vocab=vocab)
        p = LabelMatrix(values=pred, vocab=vocab)
        for beta in (1.0, 2.0):
            assert averaged(p, t, "macro", beta).fbeta == pytest.approx(
                averaged(p, t, "micro", beta).fbeta, abs=1e-12
            )

    def test_monotone_in_tp(self):
        # flipping a wrong cell to correct never decreases any averaged F
        rng = make_rng(2)
        truth = random_label_matrix(rng, 8, 4)
        pred_values = random_label_matrix(rng, 8, 4).values.copy()
        wrong = np.nonzero((pred_values == 0) & (truth.values == 1))
        before = {
            s: averaged(LabelMatrix(values=pred_values, vocab=truth.vocab), truth, s, 2.0,
                        class_weights=[0.25] * 4 if s == "weighted" else None).fbeta
            for s in SCHEMES
        }
        pred_values[wrong[0][0], wrong[1][0]] = 1
        after_matrix = LabelMatrix(values=pred_values, vocab=truth.vocab)
        for s in SCHEMES:
            w = [0.25] * 4 if s == "weighted" else None
            assert averaged(after_matrix, truth, s, 2.0, class_weights=w).fbeta >= before[s]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 6))
    def test_all_schemes_match_naive_loop_oracle_exactly(self, seed, n, k):
        rng = make_rng(seed)
        truth = random_label_matrix(rng, n, k, density=0.4)
        pred = random_label_matrix(rng, n, k, density=0.6)
        weights_raw = rng.random(k) + 0.1
        weights = (weights_raw / weights_raw.sum()).tolist()
        for scheme in SCHEMES:
            w = weights if scheme == "weighted" else None
            got = averaged(pred, truth, scheme, beta=2.0, class_weights=w)
            want = oracle_averaged(pred.values, truth.values, scheme, 2.0, weights=w)
            assert (got.precision, got.recall, got.fbeta) == want, scheme


def loop_sum(values: np.ndarray) -> float:
    """The left-to-right loop ``_seq_sum`` replaced: the oracle."""
    acc = 0.0
    for v in values.tolist():
        acc += v
    return acc


# signed magnitudes from 1e-300 to 1e300, and both zeros
MIXED = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, neg: (-m if neg else m) * 10.0**e,
              st.floats(1.0, 9.999), st.integers(-300, 299), st.booleans()),
)


class TestSeqSum:
    @staticmethod
    def same_bits(values):
        values = np.array(values, dtype=np.float64)
        return np.float64(_seq_sum(values)).tobytes() == np.float64(loop_sum(values)).tobytes()

    @pytest.mark.parametrize("values", [[2.5], [-0.0], [1e300, -1e300], [0.1, 0.2],
                                        [0.0] * 7, [-0.0] * 7, []],
                             ids=["n1", "n1-negzero", "n2-cancel", "n2", "zeros", "negzeros",
                                  "empty"])
    def test_edge_cases_match_loop(self, values):
        assert self.same_bits(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MIXED, min_size=1, max_size=40))
    def test_matches_loop_bit_for_bit(self, values):
        assert self.same_bits(values)


class TestReport:
    def test_perfect_predictor_all_ones(self):
        rng = make_rng(3)
        truth = random_label_matrix(rng, 10, 4, density=0.5)
        rep = report(truth, truth)
        assert (rep.precision == 1).all() or set(
            np.nonzero(rep.precision != 1)[0]
        ) == set(np.nonzero(truth.values.sum(axis=0) == 0)[0])
        assert rep.total == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_all_zero_prediction(self):
        rng = make_rng(4)
        values = (rng.random((12, 3)) < 0.5).astype(np.int8)
        values[:, 0] = 1  # guarantee a positive per sample
        truth = LabelMatrix(values=values, vocab=make_vocab(3))
        zero = LabelMatrix(values=np.zeros_like(values), vocab=truth.vocab)
        rep = report(zero, truth)
        assert rep.total[1] == 0.0  # recall
        assert rep.total[4] == 0.0  # F2

    def test_per_class_rows_recompute_via_fbeta(self):
        rng = make_rng(5)
        truth = random_label_matrix(rng, 30, 6)
        pred = random_label_matrix(rng, 30, 6)
        rep = report(pred, truth)
        for i in range(6):
            assert rep.f1[i] == pytest.approx(
                fbeta(rep.precision[i], rep.recall[i], 1), abs=1e-12
            )
            assert rep.f2[i] == pytest.approx(
                fbeta(rep.precision[i], rep.recall[i], 2), abs=1e-12
            )

    def test_per_class_accuracy_is_tp_tn_over_n(self):
        c = confusion(PRED, TRUTH, "per_class")
        rep = report(PRED, TRUTH)
        assert rep.accuracy.tolist() == ((c.tp + c.tn) / 2).tolist()

    def test_total_row_is_sample_averaged_with_subset_accuracy(self):
        rng = make_rng(6)
        truth = random_label_matrix(rng, 25, 5)
        pred = random_label_matrix(rng, 25, 5)
        rep = report(pred, truth)
        s1 = averaged(pred, truth, "sample", 1.0)
        s2 = averaged(pred, truth, "sample", 2.0)
        assert rep.total == (
            s1.precision,
            s1.recall,
            subset_accuracy(pred, truth),
            s1.fbeta,
            s2.fbeta,
        )

    def test_report_fixture_row_from_stacked_scoreboard(self):
        # build integer counts whose ratios approximate the reference
        # clear-row P/R, then check the F2 cell via the formula
        tp, fp, fn = 9365, 634, 94  # p ~ 0.936594, r ~ 0.990064
        p = tp / (tp + fp)
        r = tp / (tp + fn)
        assert p == pytest.approx(0.936573, abs=5e-5)
        assert r == pytest.approx(0.990079, abs=5e-5)
        assert fbeta(p, r, 2) == pytest.approx(0.978879, abs=1e-4)

    def test_csv_and_table_have_six_decimals_and_total_row(self):
        rep = report(PRED, TRUTH)
        csv_text = rep.to_csv_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("class,precision,recall,accuracy")
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("Total,")
        assert "0.454545" in lines[-1]  # sample-F2 = (10/11 + 0)/2
        table = rep.to_table_text()
        assert "Total" in table and "F2 Score" in table
