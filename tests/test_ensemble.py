import re

import numpy as np
import pytest

from canopy.data import LabelMatrix, ProbMatrix, make_rng
from canopy.ensemble import (
    MetaLearnerConfig,
    StackedFeatures,
    assemble_oof,
    stack_train,
    weighted_vote,
)
from canopy.metrics import sample_fbeta
from canopy.nn import TrainConfig

from conftest import make_vocab

REFERENCE_BACKBONE_WEIGHTS = (3, 3, 2, 2, 2, 3, 2, 3, 2, 1, 1)  # sums to 24


def vote_bits(bits, weights):
    """Single-label vote over one sample, as plain arithmetic."""
    v = sum(w * b for w, b in zip(weights, bits))
    return 1 if v > sum(weights) / 2 else 0


def as_matrices(bit_rows, vocab):
    return [
        LabelMatrix(values=np.array([[b]], dtype=np.int8), vocab=vocab)
        for b in bit_rows
    ]


class TestWeightedVote:
    def test_enumerated_examples(self):
        vocab = make_vocab(1)
        # weights (2,1,1): votes (1,1,0) -> v=3 > 2 -> 1; (1,0,0) -> v=2 -> 0
        out = weighted_vote(as_matrices([1, 1, 0], vocab), [2, 1, 1])
        assert out.values[0, 0] == 1
        out = weighted_vote(as_matrices([1, 0, 0], vocab), [2, 1, 1])
        assert out.values[0, 0] == 0

    def test_even_total_tie_breaks_negative(self):
        vocab = make_vocab(1)
        out = weighted_vote(as_matrices([1, 0], vocab), [1, 1])
        assert out.values[0, 0] == 0

    def test_single_model_is_identity(self):
        rng = make_rng(0)
        vocab = make_vocab(4)
        pred = LabelMatrix(values=(rng.random((9, 4)) < 0.5).astype(np.int8), vocab=vocab)
        assert (weighted_vote([pred], [3]).values == pred.values).all()

    def test_equal_weights_reduce_to_strict_majority(self):
        rng = make_rng(1)
        vocab = make_vocab(3)
        preds = [
            LabelMatrix(values=(rng.random((12, 3)) < 0.5).astype(np.int8), vocab=vocab)
            for _ in range(5)
        ]
        got = weighted_vote(preds, [1] * 5)
        votes = sum(p.values.astype(int) for p in preds)
        assert (got.values == (votes > 2.5)).all()

    def test_scaling_all_weights_is_invariant(self):
        rng = make_rng(2)
        vocab = make_vocab(2)
        preds = [
            LabelMatrix(values=(rng.random((10, 2)) < 0.5).astype(np.int8), vocab=vocab)
            for _ in range(3)
        ]
        a = weighted_vote(preds, [2, 1, 1])
        b = weighted_vote(preds, [6, 3, 3])
        assert (a.values == b.values).all()

    def test_reference_weight_vector_brute_force_all_patterns(self):
        # all 2^11 vote patterns against plain-arithmetic enumeration
        vocab = make_vocab(1)
        weights = REFERENCE_BACKBONE_WEIGHTS
        assert sum(weights) == 24
        for pattern in range(2**11):
            bits = [(pattern >> j) & 1 for j in range(11)]
            got = weighted_vote(as_matrices(bits, vocab), weights)
            assert got.values[0, 0] == vote_bits(bits, weights)

    def test_input_validation(self):
        vocab = make_vocab(1)
        with pytest.raises(ValueError, match="at least one"):
            weighted_vote([], [1])
        with pytest.raises(ValueError, match="weights"):
            weighted_vote(as_matrices([1, 0], vocab), [1])
        with pytest.raises(ValueError, match=">= 1"):
            weighted_vote(as_matrices([1, 0], vocab), [1, 0])

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", np.float64(1.0)])
    def test_non_integer_weight_rejected_by_name(self, bad):
        """Truncated by int(), 1.5 would vote 1 > 2 / 2, so 0, where the
        formula's 1.5 > 2.5 / 2 gives 1: such a weight is refused by name."""
        message = f"weights must be integers >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            weighted_vote(as_matrices([1, 0], make_vocab(1)), [bad, 1])

    def test_numpy_integer_weights_accepted(self):
        out = weighted_vote(as_matrices([1, 0], make_vocab(1)), [np.int64(2), np.int32(1)])
        assert out.values.tolist() == [[1]]


class TestAssembleOof:
    def test_single_model_single_fold_is_identity(self):
        rng = make_rng(3)
        vocab = make_vocab(3)
        probs = ProbMatrix(values=rng.random((6, 3)), vocab=vocab)
        stacked = assemble_oof(6, [[(np.arange(6), probs)]])
        assert (stacked.values == probs.values).all()
        assert stacked.n_models == 1

    def test_model_major_column_order(self):
        rng = make_rng(4)
        vocab = make_vocab(17)
        m1 = ProbMatrix(values=rng.random((5, 17)), vocab=vocab)
        m2 = ProbMatrix(values=rng.random((5, 17)), vocab=vocab)
        idx = np.arange(5)
        stacked = assemble_oof(5, [[(idx, m1)], [(idx, m2)]])
        assert stacked.values.shape == (5, 34)
        assert (stacked.values[:, :17] == m1.values).all()
        assert (stacked.values[:, 17:] == m2.values).all()

    def test_fold_order_does_not_matter(self):
        rng = make_rng(5)
        vocab = make_vocab(2)
        idx_a, idx_b = np.array([0, 2, 4]), np.array([1, 3])
        pa = ProbMatrix(values=rng.random((3, 2)), vocab=vocab)
        pb = ProbMatrix(values=rng.random((2, 2)), vocab=vocab)
        one = assemble_oof(5, [[(idx_a, pa), (idx_b, pb)]])
        two = assemble_oof(5, [[(idx_b, pb), (idx_a, pa)]])
        assert (one.values == two.values).all()

    def test_missing_and_duplicate_coverage_rejected(self):
        rng = make_rng(6)
        vocab = make_vocab(2)
        p = ProbMatrix(values=rng.random((3, 2)), vocab=vocab)
        with pytest.raises(ValueError, match="no out-of-fold"):
            assemble_oof(5, [[(np.array([0, 1, 2]), p)]])
        dup = ProbMatrix(values=rng.random((3, 2)), vocab=vocab)
        with pytest.raises(ValueError, match="more than once"):
            assemble_oof(4, [[(np.array([0, 1, 2]), p), (np.array([2, 3, 0]), dup)]])

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([0, 0, 1], "model 0: sample index 0 is repeated"),
            ([0, 1, 3], "model 0: sample index 3 is not in [0, 3)"),
            ([0, -1, 1], "model 0: sample index -1 is not in [0, 3)"),
        ],
    )
    def test_bad_piece_index_named(self, indices, message):
        """A repeat inside one piece used to count once, so [0, 0, 1] plus a
        piece for sample 2 covered 3 samples with 4 rows."""
        rng = make_rng(6)
        vocab = make_vocab(2)
        p = ProbMatrix(values=rng.random((3, 2)), vocab=vocab)
        rest = ProbMatrix(values=rng.random((1, 2)), vocab=vocab)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            assemble_oof(3, [[(np.array(indices), p), (np.array([2]), rest)]])

    def test_in_fold_predictions_never_leak(self):
        # start from full per-fold prediction matrices whose in-fold rows
        # are garbage; only the holdout slices reach the stacked output
        rng = make_rng(7)
        vocab = make_vocab(2)
        folds = {0: np.array([0, 2]), 1: np.array([1, 3])}
        clean = {f: rng.random((4, 2)) for f in folds}
        poisoned = {f: m.copy() for f, m in clean.items()}
        for f, idx in folds.items():
            in_fold = np.setdiff1d(np.arange(4), idx)
            poisoned[f][in_fold] = 0.0  # wreck everything out of the holdout

        def pieces(full):
            return [[(idx, ProbMatrix(values=full[f][idx], vocab=vocab))
                     for f, idx in folds.items()]]

        a = assemble_oof(4, pieces(clean))
        b = assemble_oof(4, pieces(poisoned))
        assert (a.values == b.values).all()


def synthetic_base_models(rng, n, vocab, skills):
    """Truth plus one noisy probability matrix per skill level."""
    k = len(vocab)
    marginals = rng.uniform(0.15, 0.6, size=k)
    truth_values = (rng.random((n, k)) < marginals).astype(np.int8)
    truth_values[truth_values.sum(axis=1) == 0, 0] = 1
    truth = LabelMatrix(values=truth_values, vocab=vocab)
    models = []
    for noise in skills:
        raw = truth_values + rng.normal(0.0, noise, size=(n, k))
        models.append(ProbMatrix(values=np.clip(raw, 0.0, 1.0), vocab=vocab))
    return truth, models


class TestStackTrain:
    def test_perfect_base_model_reaches_f2_099(self):
        rng = make_rng(21)
        vocab = make_vocab(4)
        truth_values = (rng.random((400, 4)) < 0.4).astype(np.int8)
        truth_values[truth_values.sum(axis=1) == 0, 0] = 1
        truth = LabelMatrix(values=truth_values, vocab=vocab)
        stacked = StackedFeatures(
            values=truth_values.astype(np.float64), n_models=1, vocab=vocab
        )
        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=64, max_epochs=80, patience=80,
                              learning_rate=0.01, seed=3)
        )
        model = stack_train(stacked, truth, config, seed=3)
        assert max(model.history["val_f2"]) >= 0.99

    def test_learns_identity_when_one_model_is_clean(self):
        rng = make_rng(8)
        vocab = make_vocab(5)
        truth, models = synthetic_base_models(rng, 400, vocab, [0.05, 0.45, 0.5])
        stacked = StackedFeatures(
            values=np.concatenate([m.values for m in models], axis=1),
            n_models=3,
            vocab=vocab,
        )
        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=64, max_epochs=60, patience=60,
                              learning_rate=0.01, seed=0)
        )
        model = stack_train(stacked, truth, config, seed=0)
        va = np.arange(320, 400)
        probs = model.predict(stacked.values[va])
        pred = LabelMatrix(values=(probs.values >= 0.5).astype(np.int8), vocab=vocab)
        val_truth = LabelMatrix(values=truth.values[va], vocab=vocab)
        clean = LabelMatrix(
            values=(models[0].values[va] >= 0.5).astype(np.int8), vocab=vocab
        )
        assert sample_fbeta(pred, val_truth) >= sample_fbeta(clean, val_truth) - 0.01

    def test_fixed_seed_reproduces_history(self):
        rng = make_rng(9)
        vocab = make_vocab(3)
        truth, models = synthetic_base_models(rng, 120, vocab, [0.2, 0.4])
        stacked = StackedFeatures(
            values=np.concatenate([m.values for m in models], axis=1),
            n_models=2,
            vocab=vocab,
        )
        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=32, max_epochs=8, patience=8, seed=5)
        )
        h1 = stack_train(stacked, truth, config, seed=5).history
        h2 = stack_train(stacked, truth, config, seed=5).history
        assert h1 == h2

    def test_explicit_validation_indices(self):
        rng = make_rng(10)
        vocab = make_vocab(3)
        truth, models = synthetic_base_models(rng, 90, vocab, [0.3])
        stacked = StackedFeatures(values=models[0].values, n_models=1, vocab=vocab)
        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=32, max_epochs=5, patience=5, seed=1)
        )
        model = stack_train(stacked, truth, config, seed=1, val_indices=np.arange(30))
        assert len(model.history["val_f2"]) >= 1

    @pytest.mark.parametrize("n, n_val", [(2, 1), (7, 1), (12, 2), (13, 3), (90, 18)])
    def test_default_split_validates_on_the_last_fifth_of_a_seeded_permutation(
        self, monkeypatch, n, n_val
    ):
        """Without val_indices, the trailing round(0.2 n) rows (at least one)
        of make_rng(seed).permutation(n) validate and the rest train."""
        import canopy.ensemble
        from canopy.nn import TrainResult

        seen = {}

        def fake_train(network, x, y, x_val, y_val, config):
            seen.update(train=x[:, 0], val=x_val[:, 0])
            return TrainResult(network=network, history={}, best_epoch=1, epochs_run=1)

        monkeypatch.setattr(canopy.ensemble, "train", fake_train)
        vocab = make_vocab(2)
        rows = np.arange(n) / n  # column 0 names each row
        stacked = StackedFeatures(values=np.column_stack([rows, rows]), n_models=1, vocab=vocab)
        truth = LabelMatrix(values=np.ones((n, 2), dtype=np.int8), vocab=vocab)
        stack_train(stacked, truth, MetaLearnerConfig(), seed=4)
        order = make_rng(4).permutation(n)
        assert (seen["val"] * n).round().astype(int).tolist() == order[n - n_val:].tolist()
        assert (seen["train"] * n).round().astype(int).tolist() == order[: n - n_val].tolist()

    @pytest.mark.parametrize(
        "val_indices, message",
        [
            ([-1, -2, -3], "val_indices: sample index -1 is not in [0, 90)"),
            ([0, 90], "val_indices: sample index 90 is not in [0, 90)"),
            ([5, 0, 0, 1, 5], "val_indices: sample index 0 is repeated"),
        ],
    )
    def test_bad_validation_index_named(self, val_indices, message):
        """A negative index used to wrap to the last samples, a repeat to
        count once, and an index >= n to raise a bare IndexError."""
        rng = make_rng(10)
        vocab = make_vocab(3)
        truth, models = synthetic_base_models(rng, 90, vocab, [0.3])
        stacked = StackedFeatures(values=models[0].values, n_models=1, vocab=vocab)
        config = MetaLearnerConfig(train=TrainConfig(batch_size=32, max_epochs=1, seed=1))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            stack_train(stacked, truth, config, seed=1, val_indices=np.array(val_indices))

    def test_hybrid_head_takes_the_vocabulary_weather_block(self):
        rng = make_rng(12)
        vocab = make_vocab(5, weather=2)
        truth, models = synthetic_base_models(rng, 40, vocab, [0.3])
        weather = np.zeros((40, 2), dtype=np.int8)
        weather[np.arange(40), rng.integers(0, 2, size=40)] = 1
        values = np.concatenate([weather, truth.values[:, 2:]], axis=1)
        truth = LabelMatrix(values=values, vocab=vocab)
        stacked = StackedFeatures(values=models[0].values, n_models=1, vocab=vocab)
        train = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=2)
        for loss, weather_count in (("hybrid", 2), ("bce", 0)):
            config = MetaLearnerConfig(loss=loss, train=train)
            model = stack_train(stacked, truth, config, seed=2)
            assert model.network.spec.weather_count == weather_count

    def test_vocabulary_mismatch_rejected(self):
        rng = make_rng(11)
        vocab = make_vocab(3)
        truth, models = synthetic_base_models(rng, 40, vocab, [0.3])
        stacked = StackedFeatures(values=models[0].values, n_models=1, vocab=vocab)
        other_truth = LabelMatrix(values=truth.values, vocab=make_vocab(3, weather=1))
        with pytest.raises(ValueError, match="vocabular"):
            stack_train(stacked, other_truth, MetaLearnerConfig(), seed=0)
