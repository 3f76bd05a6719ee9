import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.classical import LearnerSpec
from canopy.data import DataError, FeatureMatrix, LabelMatrix, make_rng
from canopy.splits import (
    FoldAssignment,
    cv_evaluate,
    load_folds,
    save_folds,
    stratified_kfold,
)

from conftest import make_vocab
from reference_splits import stratified_kfold as reference_stratified_kfold


def imbalanced_labels(rng, n=1000, k=17):
    """Synthetic multi-label data with a marginal profile like real scene
    tags: one near-universal label, a few mid-frequency ones, a rare tail."""
    marginals = np.array(
        [0.70, 0.05, 0.07, 0.18, 0.30, 0.008, 0.02, 0.008, 0.005,
         0.005, 0.11, 0.09, 0.90, 0.20, 0.008, 0.006, 0.18][:k]
    )
    values = (rng.random((n, k)) < marginals[None, :]).astype(np.int8)
    return LabelMatrix(values=values, vocab=make_vocab(k))


class TestStratifiedKfold:
    def test_single_label_exact_stratification(self):
        # 100 samples, one label with 20 positives, k=5:
        # every fold must hold exactly 4 positives and 20 samples
        rng = make_rng(0)
        values = np.zeros((100, 1), dtype=np.int8)
        values[rng.choice(100, size=20, replace=False)] = 1
        truth = LabelMatrix(values=values, vocab=make_vocab(1))
        folds = stratified_kfold(truth, k=5, seed=42)
        for f in range(5):
            idx = folds.fold_indices(f)
            assert len(idx) == 20
            assert values[idx].sum() == 4

    def test_all_positive_single_label_balances_sizes(self):
        truth = LabelMatrix(values=np.ones((23, 1), dtype=np.int8), vocab=make_vocab(1))
        folds = stratified_kfold(truth, k=5, seed=0)
        sizes = np.bincount(folds.fold_of, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_same_seed_identical_assignment(self):
        truth = imbalanced_labels(make_rng(1))
        a = stratified_kfold(truth, k=5, seed=7)
        b = stratified_kfold(truth, k=5, seed=7)
        assert (a.fold_of == b.fold_of).all()

    def test_partition_and_validation_coverage(self):
        truth = imbalanced_labels(make_rng(2), n=400)
        folds = stratified_kfold(truth, k=5, seed=3)
        seen = np.zeros(400, dtype=int)
        for f in range(5):
            seen[folds.fold_indices(f)] += 1
        assert (seen == 1).all()

    def test_proportions_close_to_global(self):
        truth = imbalanced_labels(make_rng(3))
        folds = stratified_kfold(truth, k=5, seed=11)
        y = truth.values
        n = truth.n_samples
        for j in range(truth.n_labels):
            total = y[:, j].sum()
            if total < 5:
                continue
            global_prop = total / n
            for f in range(5):
                idx = folds.fold_indices(f)
                prop = y[idx, j].sum() / len(idx)
                budget = max(0.02, 1.0 / len(idx))
                assert abs(prop - global_prop) <= budget + 1e-12, (j, f)

    @pytest.mark.parametrize("k, message", [
        (1, "k must be >= 2"),
        (-1, "k must be >= 2"),
        (4, "k=4 exceeds the number of samples (3)"),
    ])
    def test_fold_count_checked_in_one_place(self, k, message):
        """stratified_kfold and FoldAssignment refuse a bad k alike. The fold
        index 3 breaks FoldAssignment's range rule too; k is checked first."""
        truth = LabelMatrix(values=np.ones((3, 1), dtype=np.int8), vocab=make_vocab(1))
        exact = "^" + re.escape(message) + "$"
        with pytest.raises(ValueError, match=exact):
            stratified_kfold(truth, k=k, seed=0)
        with pytest.raises(ValueError, match=exact):
            FoldAssignment(fold_of=np.array([0, 1, 3]), k=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_fold_count_must_be_an_integer(self, k):
        """A float k used to fail inside the splitter or bincount with a
        TypeError naming no setting; True passed as 1."""
        truth = LabelMatrix(values=np.ones((3, 1), dtype=np.int8), vocab=make_vocab(1))
        exact = "^k must be an integer, got "
        with pytest.raises(TypeError, match=exact):
            stratified_kfold(truth, k=k, seed=0)
        with pytest.raises(TypeError, match=exact):
            FoldAssignment(fold_of=np.array([0, 1, 0]), k=k)
        assert type(FoldAssignment(fold_of=np.array([0, 1, 0]), k=np.int64(2)).k) is int


@st.composite
def split_problems(draw):
    """Small label matrices whose columns take the shapes the splitter
    treats differently: free, above 50% prevalence, a single positive or no
    positive; optionally all-zero rows; k up to n (n = k included)."""
    n = draw(st.integers(2, 30))
    n_labels = draw(st.integers(1, 4))
    cells = st.lists(st.booleans(), min_size=n * n_labels, max_size=n * n_labels)
    y = np.array(draw(cells)).reshape(n, n_labels)
    for j in range(n_labels):
        shape = draw(st.sampled_from(["free", "dense", "single positive", "no positive"]))
        if shape == "dense":
            y[:, j] = True
            y[draw(st.integers(0, n - 1)), j] = False
        elif shape == "single positive":
            y[:, j] = False
            y[draw(st.integers(0, n - 1)), j] = True
        elif shape == "no positive":
            y[:, j] = False
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        y[i] = False
    k = draw(st.one_of(st.just(n), st.integers(2, n)))
    truth = LabelMatrix(values=y.astype(np.int8), vocab=make_vocab(n_labels))
    return truth, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_stratified_kfold_matches_array_oracle(problem):
    """Ties in demand and capacity are frequent at this size, so the PRNG
    draws must come in the oracle's order for the folds to agree."""
    truth, k, seed = problem
    got = stratified_kfold(truth, k, seed)
    want = reference_stratified_kfold(truth, k, seed)
    assert got.k == want.k
    assert got.fold_of.dtype == want.fold_of.dtype
    assert got.fold_of.tobytes() == want.fold_of.tobytes()
    # demand outranks capacity, so sizes can differ by more than one (19
    # rows in 9 folds can give 3 and 1); only the quota ceil(n / k) holds
    assert np.bincount(got.fold_of).max() <= -(-truth.n_samples // k)


def test_stratified_kfold_matches_array_oracle_on_a_seeded_sweep():
    """5000 small problems with per-label prevalences drawn at random. About
    one in 700 reaches a fold at its size quota that still has the greatest
    demand, a case hypothesis's examples rarely reach."""
    rng = make_rng(0)
    for _ in range(5000):
        n, n_labels = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 6) + 1))
        y = rng.random((n, n_labels)) < rng.random(n_labels)
        truth = LabelMatrix(values=y.astype(np.int8), vocab=make_vocab(n_labels))
        seed = int(rng.integers(1000))
        want = reference_stratified_kfold(truth, k, seed).fold_of
        assert np.array_equal(stratified_kfold(truth, k, seed).fold_of, want), (y, k, seed)


def test_stratified_kfold_matches_array_oracle_at_scale():
    truth = imbalanced_labels(make_rng(5), n=3000)
    for seed in (0, 2024):
        want = reference_stratified_kfold(truth, 5, seed).fold_of
        assert np.array_equal(stratified_kfold(truth, 5, seed).fold_of, want)


def special_problems():
    rng = make_rng(12)
    one_label = np.zeros((50, 4))
    one_label[:, 2] = rng.random(50) < 0.3
    return {
        "identical rows": (np.tile([1, 0, 1, 1], (37, 1)), 5),
        "identical rows, no label": (np.zeros((23, 3)), 4),
        "n divisible by k": (rng.random((60, 3)) < [0.1, 0.4, 0.7], 5),
        "n divisible by k, all ties": (np.ones((40, 2)), 4),
        "k = n": (rng.random((7, 3)) < 0.4, 7),
        "k = n, identical rows": (np.ones((6, 2)), 6),
        "one label holds every positive": (one_label, 3),
        "one label, every row positive": (np.eye(1, 4, 1).repeat(21, axis=0), 4),
        # label 1 is dealt after its one-row complement and label 0 have put
        # one sample in each fold: its first free row fills a fold to the
        # quota of 2, and the next row must go to the other fold
        "fold fills mid-batch": ([[1, 1], [1, 0], [0, 1], [0, 1]], 2),
        # label 1's row and label 0's two rows fill one fold with no positive
        # of label 2 while the other fold holds one: label 2's last row goes
        # to the other fold, though the full one wants it more
        "full fold wanted most": ([[0, 1, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]], 2),
        # one batch of ties with a quota of 5: three folds reach it, the first
        # two with samples still to deal
        "folds fill mid-batch at an uneven quota": (np.ones((23, 1)), 5),
    }


@pytest.mark.parametrize("name", list(special_problems()))
def test_cases_the_merged_keys_treat_specially(name):
    """Inputs where every pick is a tie, where the quota n / k is exact, where
    a fold has room for one sample, where one label is the whole problem, and
    where folds reach their quota in the middle of a label's batch: the same
    folds as the oracle for 50 seeds, and fold sizes within one of each other."""
    values, k = special_problems()[name]
    values = np.asarray(values, dtype=np.int8)
    truth = LabelMatrix(values=values, vocab=make_vocab(values.shape[1]))
    for seed in range(50):
        got = stratified_kfold(truth, k, seed).fold_of
        assert got.tobytes() == reference_stratified_kfold(truth, k, seed).fold_of.tobytes()
        sizes = np.bincount(got, minlength=k)
        assert sizes.max() - sizes.min() <= 1


class TestFoldIo:
    def test_round_trip(self, tmp_path):
        truth = imbalanced_labels(make_rng(4), n=60)
        folds = stratified_kfold(truth, k=3, seed=1)
        ids = [f"img_{i}" for i in range(60)]
        path = tmp_path / "folds.csv"
        save_folds(path, ids, folds)
        ids2, folds2 = load_folds(path)
        assert ids2 == ids
        assert (folds2.fold_of == folds.fold_of).all()
        assert folds2.k == 3

    # never a value like 10**9 here: before the range checks, such a fold in
    # a two-row file made FoldAssignment allocate k counts
    @pytest.mark.parametrize("fold", [10**30, 2**62, -1])
    def test_fold_outside_the_rows_names_its_row(self, tmp_path, fold):
        path = tmp_path / "folds.csv"
        path.write_text(f"image_name,fold\na,0\n\nb,{fold}\n")
        with pytest.raises(DataError) as err:
            load_folds(path)
        assert str(err.value) == f"{path}: row 4: fold '{fold}' is not in [0, 2) for 2 rows"

    def test_later_write_to_the_callers_array_does_not_reach_fold_of(self):
        a = np.array([0, 1, 0, 1])
        folds = FoldAssignment(fold_of=a[:], k=2)
        a[:] = 5
        assert folds.fold_of.tolist() == [0, 1, 0, 1]
        assert folds.fold_indices(0).tolist() == [0, 2]

    def test_callers_fold_array_stays_writable(self):
        a = np.array([0, 1, 0, 1], dtype=np.int64)
        folds = FoldAssignment(fold_of=a, k=2)
        assert a.flags.writeable and not folds.fold_of.flags.writeable
        a[0] = 1

    def test_more_folds_than_samples_rejected_before_counting(self):
        with pytest.raises(ValueError, match=r"k=4611686018427387905 exceeds .* \(2\)"):
            FoldAssignment(fold_of=np.array([0, 2**62]), k=2**62 + 1)


class _ConstantLearnerChecks:
    pass


class TestCvEvaluate:
    def make_learnable(self, rng, n=90, k=3):
        """Features that exactly determine every label, with at least one
        positive label per sample (all-negative truth rows would zero out
        the sample-averaged scores regardless of the learner)."""
        X = rng.normal(size=(n, 4))
        cols = [(X[:, j] > 0).astype(np.int8) for j in range(k - 1)]
        cols.append(1 - cols[0])
        truth = np.column_stack(cols)
        return FeatureMatrix(values=X), LabelMatrix(values=truth, vocab=make_vocab(k))

    def test_perfectly_learnable_toy_data(self):
        rng = make_rng(5)
        features, truth = self.make_learnable(rng)
        spec = LearnerSpec(kind="tree", params={"max_depth": 6})
        result = cv_evaluate(spec, features, truth, k=3, seed=0)
        assert len(result.fold_reports) == 3
        for rep in result.fold_reports:
            assert rep.total[4] > 0.9  # holdout F2 on separable data

    def test_average_is_arithmetic_mean_of_folds(self):
        rng = make_rng(6)
        features, truth = self.make_learnable(rng, n=60, k=2)
        spec = LearnerSpec(kind="tree", params={"max_depth": 3})
        result = cv_evaluate(spec, features, truth, k=4, seed=1)
        totals = np.array([rep.total for rep in result.fold_reports])
        for got, want in zip(result.average_total, totals.mean(axis=0)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_each_sample_validates_exactly_once_in_oof(self):
        rng = make_rng(7)
        features, truth = self.make_learnable(rng, n=45, k=2)
        spec = LearnerSpec(kind="tree", params={"max_depth": 2})
        result = cv_evaluate(spec, features, truth, k=3, seed=2)
        covered = np.zeros(45, dtype=int)
        for f in range(3):
            covered[result.folds.fold_indices(f)] += 1
        assert (covered == 1).all()
        assert result.oof_probs.shape == (45, 2)

    def test_training_failure_carries_fold_index(self):
        rng = make_rng(8)
        features, truth = self.make_learnable(rng, n=30, k=2)
        # k_components is checked against the data's classes, so only at fit
        bad = LearnerSpec(kind="lda", params={"k_components": 5})
        with pytest.raises(RuntimeError, match="fold 0"):
            cv_evaluate(bad, features, truth, k=3, seed=0)

    @pytest.mark.parametrize("k, message", [
        (-1, "k must be >= 2"),
        (100_000, "k=100000 exceeds the number of samples (20)"),
    ])
    def test_fold_count_checked_before_seeds_are_spawned(self, monkeypatch, k, message):
        """k=-1 used to fail unpacking the spawned seeds, and a huge k to
        spend time growing with k on seeds before stratified_kfold refused."""
        import canopy.splits

        def no_seeds(*args):
            pytest.fail("spawn_seeds was called before k was checked")

        monkeypatch.setattr(canopy.splits, "spawn_seeds", no_seeds)
        features, truth = self.make_learnable(make_rng(9), n=20, k=2)
        spec = LearnerSpec(kind="tree", params={"max_depth": 2})
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            cv_evaluate(spec, features, truth, k=k, seed=0)
