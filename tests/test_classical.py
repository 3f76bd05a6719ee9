import errno
import json
import os
import signal
import time
import warnings

import numpy as np
import pytest

import canopy.classical.multioutput as multioutput
from canopy.classical import (
    ConstantModel,
    LearnerSpec,
    fit_multioutput,
    forest_fit,
    gbm_fit,
    lda_fit,
    load_model,
    predict_multioutput,
    save_model,
    tree_fit,
)
from canopy.classical.multioutput import FORK_MIN_CELLS
from canopy.data import FeatureMatrix, LabelMatrix, make_rng
from canopy.metrics import sample_fbeta

from conftest import make_vocab


# ---------------------------------------------------------------------------
# decision trees
# ---------------------------------------------------------------------------


def brute_force_best_split(X, y, criterion):
    """Exhaustive scan over all (feature, midpoint) pairs; ties resolved
    like the learner: first feature, smallest threshold, 1e-15 slack."""
    n, f = X.shape
    best = None
    for j in range(f):
        values = sorted(set(X[:, j].tolist()))
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, j] <= t]
            right = [i for i in range(n) if X[i, j] > t]
            score = 0.0
            for side in (left, right):
                ys = [y[i] for i in side]
                if criterion == "gini":
                    impurity = 1.0 - sum(
                        (ys.count(c) / len(ys)) ** 2 for c in set(ys)
                    )
                else:
                    mean = sum(ys) / len(ys)
                    impurity = sum((v - mean) ** 2 for v in ys) / len(ys)
                score += len(side) * impurity / n
            if best is None or score < best[0] - 1e-15:
                best = (score, j, t)
    return best


class TestTree:
    def test_pure_node_is_leaf(self):
        X = make_rng(0).normal(size=(10, 3))
        tree = tree_fit(X, np.ones(10, dtype=int), criterion="gini")
        assert tree.feature[0] == -1

    def test_1d_threshold_exact_cut_recovery(self):
        X = np.array([[0.2], [0.4], [0.6], [0.8]])
        y = np.array([0, 0, 1, 1])
        tree = tree_fit(X, y, criterion="gini")
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)
        assert tree.feature[tree.left[0]] == -1 and tree.feature[tree.right[0]] == -1

    def test_seeded_random_cutpoints_reproducible(self):
        rng = make_rng(1)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(int)
        t1 = tree_fit(X, y, cutpoint="random", seed=9)
        t2 = tree_fit(X, y, cutpoint="random", seed=9)
        assert (t1.predict(X) == t2.predict(X)).all()

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_best_split_matches_brute_force(self, criterion, seed):
        rng = make_rng(seed)
        n = int(rng.integers(10, 101))
        X = rng.normal(size=(n, 5)).round(3)
        if criterion == "gini":
            y = (rng.random(n) < 0.5).astype(int)
        else:
            y = rng.normal(size=n)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0] if criterion == "gini" else y[0] + 1.0
        want = brute_force_best_split(X, y, criterion)
        tree = tree_fit(X, y, criterion=criterion, max_depth=1)
        assert want is not None
        assert tree.feature[0] == want[1]
        assert tree.threshold[0] == pytest.approx(want[2], abs=1e-12)

    def test_constant_features_give_leaf(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        tree = tree_fit(X, y, criterion="gini")
        assert tree.feature[0] == -1

    def test_leaf_probabilities_are_class_frequencies(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        tree = tree_fit(X, y, criterion="gini", max_depth=1)
        probs = tree.predict_proba(np.array([[0.0]]))
        np.testing.assert_allclose(probs[0], [2 / 3, 1 / 3])


class TestForest:
    def separable(self, rng, n=60):
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        return X, y

    def test_single_tree_reduction(self):
        rng = make_rng(2)
        X, y = self.separable(rng)
        forest = forest_fit(
            X, y, n_estimators=1, variant="rf", feature_rule="all", bootstrap=False
        )
        plain = tree_fit(X, y, criterion="gini")
        assert (forest.predict(X) == plain.predict(X)).all()

    def test_identical_trees_vote_like_one_tree(self):
        # no bootstrap + full feature scan makes every tree identical, so
        # the majority vote must reproduce the single-tree prediction
        rng = make_rng(2)
        X, y = self.separable(rng)
        forest = forest_fit(
            X, y, n_estimators=5, variant="rf", feature_rule="all", bootstrap=False
        )
        plain = tree_fit(X, y, criterion="gini")
        assert (forest.predict(X) == plain.predict(X)).all()
        np.testing.assert_allclose(
            forest.predict_proba(X), plain.predict_proba(X), atol=1e-15
        )

    @pytest.mark.parametrize("variant", ["rf", "extra"])
    def test_training_accuracy_on_separable_data(self, variant):
        rng = make_rng(3)
        X, y = self.separable(rng)
        model = forest_fit(X, y, n_estimators=60, variant=variant, seed=4)
        assert (model.predict(X) == y).mean() == 1.0

    def test_extra_uses_full_sample_by_default(self):
        rng = make_rng(4)
        X, y = self.separable(rng, n=20)
        model = forest_fit(X, y, n_estimators=3, variant="extra", seed=0)
        assert model.bootstrap is False
        rf = forest_fit(X, y, n_estimators=3, variant="rf", seed=0)
        assert rf.bootstrap is True

    def test_deterministic_for_fixed_seed(self):
        rng = make_rng(5)
        X, y = self.separable(rng)
        a = forest_fit(X, y, n_estimators=10, variant="extra", seed=7)
        b = forest_fit(X, y, n_estimators=10, variant="extra", seed=7)
        assert (a.predict_proba(X) == b.predict_proba(X)).all()

    def test_probabilities_in_unit_interval(self):
        rng = make_rng(6)
        X, y = self.separable(rng)
        p = forest_fit(X, y, n_estimators=15, seed=1).predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestGbm:
    def test_initial_value_is_target_mean_and_residual_fit(self):
        # distinct features, one stage, full-depth tree: stage 1 fits
        # y - mean exactly, so predictions interpolate the targets
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        model = gbm_fit(X, y, n_stages=1, learning_rate=1.0, max_depth=None)
        assert model.f0 == pytest.approx(y.mean())
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    @pytest.mark.parametrize("gamma_mode", ["leaf", "stage"])
    def test_squared_loss_mse_non_increasing(self, gamma_mode):
        rng = make_rng(7)
        X = rng.normal(size=(120, 3))
        y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + 0.1 * rng.normal(size=120)
        model = gbm_fit(X, y, n_stages=60, learning_rate=0.1, max_depth=3,
                        gamma_mode=gamma_mode)
        F = np.full(len(y), model.f0)
        prev = ((y - F) ** 2).mean()
        for tree, gamma in model.stages:
            F = F + model.learning_rate * gamma * tree.predict_value(X)
            mse = ((y - F) ** 2).mean()
            assert mse <= prev + 1e-12
            prev = mse

    def test_logistic_loss_separable_classification(self):
        rng = make_rng(8)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        model = gbm_fit(X, y, n_stages=30, learning_rate=0.2, max_depth=2,
                        loss="logistic")
        p = model.predict_proba(X)
        assert ((p >= 0.5) == y).mean() > 0.97
        assert (model.predict(X) == (p >= 0.5)).all()

    def test_signature_defaults(self):
        import inspect

        sig = inspect.signature(gbm_fit)
        assert sig.parameters["learning_rate"].default == 0.1
        assert sig.parameters["max_depth"].default == 3
        assert sig.parameters["n_stages"].default == 100

    def test_invalid_arguments(self):
        X, y = np.zeros((4, 1)), np.zeros(4)
        with pytest.raises(ValueError):
            gbm_fit(X, y, n_stages=0)
        with pytest.raises(ValueError):
            gbm_fit(X, y, learning_rate=1.5)
        with pytest.raises(ValueError):
            gbm_fit(X, np.array([0, 1, 2, 3]), loss="logistic")


class TestLda:
    def two_gaussians(self, rng, n=400, mu=(3.5, 0.8), cov=None):
        cov = np.array([[1.0, 0.1], [0.1, 0.9]]) if cov is None else cov
        half = n // 2
        a = rng.multivariate_normal([0.0, 0.0], cov, size=half)
        b = rng.multivariate_normal(mu, cov, size=half)
        X = np.vstack([a, b])
        y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
        return X, y, cov

    def test_direction_matches_analytic_fisher(self):
        rng = make_rng(0)
        X, y, cov = self.two_gaussians(rng)
        model = lda_fit(X, y, reg_lambda=0.0)
        want = np.linalg.solve(cov, np.array([3.5, 0.8]))
        got = model.projection[:, 0]
        cos = abs(got @ want) / (np.linalg.norm(got) * np.linalg.norm(want))
        assert np.degrees(np.arccos(min(cos, 1.0))) < 5.0

    def test_holdout_accuracy(self):
        rng = make_rng(0)
        X, y, _ = self.two_gaussians(rng, n=400)
        Xt, yt, _ = self.two_gaussians(rng, n=400)
        model = lda_fit(X, y)
        assert (model.predict(Xt) == yt).mean() >= 0.95

    def test_identical_classes_have_null_separation(self):
        rng = make_rng(11)
        X = rng.normal(size=(400, 3))
        y = np.repeat([0, 1], 200)
        rng.shuffle(y)
        model = lda_fit(X, y)
        assert abs(model.eigenvalues[0]) < 0.05

    def test_binary_component_bound(self):
        rng = make_rng(12)
        X, y, _ = self.two_gaussians(rng, n=60)
        with pytest.raises(ValueError, match="k_components"):
            lda_fit(X, y, k_components=2)  # min(classes-1, features) = 1

    def test_decisions_invariant_under_feature_rescaling(self):
        rng = make_rng(13)
        X, y, _ = self.two_gaussians(rng, n=200)
        scale = np.array([3.5, 0.25])
        a = lda_fit(X, y, reg_lambda=0.0).predict(X)
        b = lda_fit(X * scale, y, reg_lambda=0.0).predict(X * scale)
        assert (a == b).all()

    def test_singular_scatter_without_ridge(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 6.0], [3.0, 6.0]])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="singular"):
            lda_fit(X, y, reg_lambda=0.0)
        lda_fit(X, y, reg_lambda=1e-6)  # ridge makes it well-posed

    def test_tiny_class_rejected(self):
        X = np.zeros((3, 2))
        y = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="at least 2"):
            lda_fit(X, y)

    def test_probabilities_valid_and_monotone_along_discriminant(self):
        rng = make_rng(14)
        X, y, _ = self.two_gaussians(rng)
        model = lda_fit(X, y)
        p = model.predict_proba(X)
        assert p.shape == (len(X), 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        z = model.transform(X)[:, 0]
        order = np.argsort(z)
        p1 = p[order, 1]
        diffs = np.diff(p1)
        assert (diffs >= -1e-12).all() or (diffs <= 1e-12).all()


# ---------------------------------------------------------------------------
# the learners' one check of their training data
# ---------------------------------------------------------------------------

FITS = {"tree": tree_fit, "gbm": gbm_fit, "lda": lda_fit, "forest": forest_fit}


@pytest.mark.parametrize("kind", sorted(FITS))
@pytest.mark.parametrize("X, y", [
    (np.zeros(4), [0, 1, 0, 1]),
    (np.zeros((4, 2, 1)), [0, 1, 0, 1]),
    (np.zeros((4, 2)), [0, 1, 0]),
    (np.zeros((4, 2)), [0, 1, 0, 1, 1]),
    (np.zeros((0, 2)), []),
], ids=["1-D X", "3-D X", "short y", "long y", "no samples"])
def test_every_learner_checks_its_data_in_one_place(kind, X, y):
    with pytest.raises(ValueError, match=r"^X must be \(n, f\) with a matching non-empty y$"):
        FITS[kind](X, y)


@pytest.mark.parametrize("kind, setting", [
    ("tree", {"max_depth": 0}), ("gbm", {"max_depth": 0}),
    ("lda", {"k_components": 0}), ("forest", {"max_depth": 0}),
])
def test_settings_are_checked_before_the_data(kind, setting):
    name = next(iter(setting))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        FITS[kind](np.zeros(4), [0, 1], **setting)


def test_forest_keeps_its_two_sample_rule():
    with pytest.raises(ValueError, match="^forest training needs at least 2 samples$"):
        forest_fit(np.zeros((1, 2)), [0])


class TestMultioutput:
    def make_data(self, rng, n=80, k=17):
        X = rng.normal(size=(n, 5))
        cols = []
        for j in range(k - 1):
            w = rng.normal(size=5)
            cols.append((X @ w > 0).astype(np.int8))
        cols.append(1 - cols[0])  # guarantees a positive label per sample
        truth = np.column_stack(cols)
        return FeatureMatrix(values=X), LabelMatrix(values=truth, vocab=make_vocab(k))

    def test_one_model_per_label(self):
        rng = make_rng(15)
        features, truth = self.make_data(rng)
        model = fit_multioutput(LearnerSpec(kind="tree"), features, truth, seed=0)
        assert len(model.models) == 17

    def test_interpolating_learner_reaches_f2_one(self):
        rng = make_rng(16)
        features, truth = self.make_data(rng, n=50, k=4)
        model = fit_multioutput(
            LearnerSpec(kind="tree", params={"max_depth": None}), features, truth, seed=0
        )
        probs = predict_multioutput(model, features)
        pred = LabelMatrix(values=(probs.values >= 0.5).astype(np.int8), vocab=truth.vocab)
        assert sample_fbeta(pred, truth) == pytest.approx(1.0)

    def test_constant_label_column_gets_base_rate(self):
        rng = make_rng(17)
        features, truth = self.make_data(rng, n=30, k=3)
        values = truth.values.copy()
        values[:, 1] = 1
        truth = LabelMatrix(values=values, vocab=truth.vocab)
        model = fit_multioutput(LearnerSpec(kind="tree"), features, truth, seed=0)
        assert isinstance(model.models[1], ConstantModel)
        probs = predict_multioutput(model, features)
        assert (probs.values[:, 1] == 1.0).all()

    def test_feature_width_checked_at_predict(self):
        rng = make_rng(18)
        features, truth = self.make_data(rng, n=30, k=2)
        model = fit_multioutput(LearnerSpec(kind="tree"), features, truth, seed=0)
        with pytest.raises(ValueError, match="features"):
            predict_multioutput(model, FeatureMatrix(values=rng.normal(size=(5, 9))))

    @pytest.mark.parametrize("kind,key", [
        ("rf", "n_trees"), ("lda", "seed"), ("tree", "seed"), ("tree", "criterion"),
        ("rf", "variant"), ("extra", "variant"), ("gbm", "loss"), ("gbm", "X"),
    ])
    def test_spec_rejects_keys_the_learner_cannot_take(self, kind, key):
        with pytest.raises(ValueError, match=f"'{key}' for learner '{kind}'"):
            LearnerSpec(kind=kind, params={key: 1})

    @pytest.mark.parametrize("kind,params,message", [
        ("gbm", {"n_stages": -1}, "n_stages must be >= 1"),
        ("gbm", {"max_depth": 0}, "max_depth must be >= 1"),
        ("gbm", {"learning_rate": 2}, "learning_rate must lie in"),
        ("rf", {"n_estimators": 0}, "n_estimators must be >= 1"),
        ("extra", {"feature_rule": "half"}, "feature_rule must be"),
        ("tree", {"cutpoint": "middle"}, "cutpoint must be"),
        ("lda", {"reg_lambda": -1.0}, "reg_lambda must be >= 0"),
        ("rf", {"max_depth": "deep"}, "bad parameter value for learner 'rf'"),
    ])
    def test_spec_rejects_values_the_learner_rejects(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            LearnerSpec(kind=kind, params=params)

    def test_spec_accepts_fit_keywords(self):
        LearnerSpec(kind="rf", params={"n_estimators": 3, "bootstrap": False})
        LearnerSpec(kind="gbm", params={"n_stages": 3, "gamma_mode": "stage"})
        LearnerSpec(kind="lda", params={"reg_lambda": 0.0})

    @pytest.mark.parametrize("kind", ["lda", "tree", "rf", "extra", "gbm"])
    def test_every_learner_kind_fits_and_predicts(self, kind):
        rng = make_rng(19)
        features, truth = self.make_data(rng, n=60, k=3)
        params = {"n_estimators": 10} if kind in ("rf", "extra") else {}
        if kind == "gbm":
            params = {"n_stages": 15}
        model = fit_multioutput(LearnerSpec(kind=kind, params=params), features, truth, seed=1)
        probs = predict_multioutput(model, features)
        assert probs.values.shape == (60, 3)
        assert (probs.values >= 0).all() and (probs.values <= 1).all()
        pred = LabelMatrix(values=(probs.values >= 0.5).astype(np.int8), vocab=truth.vocab)
        assert sample_fbeta(pred, truth) > 0.7


class TestWorkerProcesses:
    """Labels fit in forked worker processes give the models, and the errors,
    that one process gives."""

    PARAMS = {
        "lda": {},
        "tree": {"max_depth": 4},
        "rf": {"n_estimators": 3, "max_depth": 4},
        "extra": {"n_estimators": 3, "max_depth": 4},
        "gbm": {"n_stages": 3},
    }

    def data(self, n_samples=FORK_MIN_CELLS // 5, n_labels=6):
        rng = make_rng(21)
        X = rng.normal(size=(n_samples, 5))
        Y = (X @ rng.normal(size=(5, n_labels)) > 0).astype(np.int8)
        return FeatureMatrix(values=X), Y

    @pytest.fixture
    def fit(self, monkeypatch, forks):
        """fit(cpus, kind, features, Y) -> (model, number of children forked)."""

        def run(cpus, kind, features, Y):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            forks.clear()
            truth = LabelMatrix(values=Y, vocab=make_vocab(Y.shape[1]))
            spec = LearnerSpec(kind=kind, params=self.PARAMS[kind])
            return fit_multioutput(spec, features, truth, seed=5), len(forks)

        return run

    @pytest.mark.parametrize("kind", ["lda", "tree", "rf", "extra", "gbm"])
    def test_worker_models_equal_one_process_models(self, fit, tmp_path, kind):
        features, Y = self.data()
        Y[:, 2] = 0  # a constant label
        one, forked_one = fit(1, kind, features, Y)
        three, forked_three = fit(3, kind, features, Y)
        assert (forked_one, forked_three) == (0, 2)
        assert isinstance(three.models[2], ConstantModel)
        save_model(tmp_path / "one.json", one)
        save_model(tmp_path / "three.json", three)
        assert (tmp_path / "one.json").read_text() == (tmp_path / "three.json").read_text()

    @pytest.mark.parametrize("refused", [(3, 4), (2, 3)], ids=["child-first", "caller-first"])
    def test_refused_label_names_the_first_in_label_order(self, fit, refused):
        """With two processes the caller fits labels 0, 2, 4 and a child 1, 3, 5."""
        features, Y = self.data()
        for j in refused:  # lda needs two samples of each class
            Y[:, j] = 0
            Y[j, j] = 1
        messages = []
        for cpus in (1, 2):
            with pytest.raises(ValueError) as caught:
                fit(cpus, "lda", features, Y)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0] == (f"lda on label 'label_{refused[0]}': "
                               "every class needs at least 2 samples")

    def test_callers_own_error_surfaces_unchanged_and_children_are_killed(self, fit, monkeypatch):
        caller = os.getpid()
        bug = KeyError("bug")

        def fit_binary(spec, X, y, seed):
            if os.getpid() == caller:
                raise bug
            time.sleep(60)  # a child still fitting when the caller fails

        monkeypatch.setattr(multioutput, "_fit_binary", fit_binary)
        start = time.perf_counter()
        with pytest.raises(KeyError) as caught:
            fit(2, "tree", *self.data())
        assert caught.value is bug
        assert time.perf_counter() - start < 30

    def in_children(self, monkeypatch, action):
        """Make each child run ``action`` before each of its fits."""
        caller, real = os.getpid(), multioutput._fit_binary

        def fit_binary(*args):
            if os.getpid() != caller:
                action()
            return real(*args)

        monkeypatch.setattr(multioutput, "_fit_binary", fit_binary)

    def test_child_error_is_raised_again(self, fit, monkeypatch):
        def bug():
            raise ZeroDivisionError("child bug")

        self.in_children(monkeypatch, bug)
        with pytest.raises(ZeroDivisionError, match="child bug"):
            fit(2, "tree", *self.data())

    def test_dead_child_is_a_runtime_error_naming_its_labels(self, fit, monkeypatch):
        self.in_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError) as caught:
            fit(2, "tree", *self.data())
        assert str(caught.value) == (
            "the worker process fitting labels ['label_1', 'label_3', 'label_5'] died (signal 9)"
        )

    def warn_from_fork(self, monkeypatch, message, after):
        """Make os.fork warn ``message``: in the parent after the fork, as
        Python 3.12+ does when another OS thread runs, or before it."""
        fork = os.fork

        def warning_fork():
            if not after:
                warnings.warn(message, DeprecationWarning)
            pid = fork()
            if pid and after:
                warnings.warn(message, DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)

    def test_multi_threaded_fork_warning_is_ignored(self, fit, monkeypatch):
        """This suite turns a DeprecationWarning into an error, and an
        OpenBLAS pool would make every forking fit warn on Python 3.12+."""
        features, Y = self.data()
        one, _ = fit(1, "tree", features, Y)
        self.warn_from_fork(monkeypatch, f"This process (pid={os.getpid()}) is multi-threaded, "
                            "use of fork() may lead to deadlocks in the child.", after=True)
        two, forked = fit(2, "tree", features, Y)
        assert forked == 1
        assert predict_multioutput(two, features).values.tobytes() == \
            predict_multioutput(one, features).values.tobytes()

    def test_failed_fork_closes_its_pipe(self, fit, monkeypatch):
        """The forks fixture fails a test that leaves the pipe open."""

        def failing_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(OSError) as caught:
            fit(2, "tree", *self.data())
        assert caught.value.errno == errno.EAGAIN

    def test_other_fork_warnings_still_show(self, fit, monkeypatch):
        self.warn_from_fork(monkeypatch, "another deprecation", after=False)
        with pytest.raises(DeprecationWarning, match="another deprecation"):
            fit(2, "tree", *self.data())

    @pytest.mark.parametrize("cpus,n_samples", [(1, FORK_MIN_CELLS // 5), (2, FORK_MIN_CELLS // 5 - 1)])
    def test_one_cpu_or_a_small_training_set_stays_in_process(self, fit, cpus, n_samples):
        features, Y = self.data(n_samples=n_samples)
        assert fit(cpus, "tree", features, Y)[1] == 0


class TestSerialization:
    @pytest.mark.parametrize("kind", ["lda", "tree", "rf", "extra", "gbm"])
    def test_round_trip_predictions_identical(self, tmp_path, kind):
        rng = make_rng(20)
        X = rng.normal(size=(50, 4))
        truth = np.column_stack(
            [(X[:, 0] > 0), (X[:, 1] + X[:, 2] > 0)]
        ).astype(np.int8)
        features = FeatureMatrix(values=X)
        labels = LabelMatrix(values=truth, vocab=make_vocab(2))
        params = {"n_estimators": 5} if kind in ("rf", "extra") else {}
        if kind == "gbm":
            params = {"n_stages": 10}
        model = fit_multioutput(LearnerSpec(kind=kind, params=params), features, labels, seed=2)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        a = predict_multioutput(model, features)
        b = predict_multioutput(loaded, features)
        assert (a.values == b.values).all()

    def test_format_guard(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_model(path)

    def test_version_guard_rejects_nested_node_trees(self, tmp_path):
        # a version-1 document, whose trees were nested node dicts
        tree = {
            "kind": "tree", "criterion": "gini", "classes": [0, 1], "n_features": 1,
            "root": {"n": 2, "feature": 0, "threshold": 0.5,
                     "left": {"n": 1, "value": [1.0, 0.0]},
                     "right": {"n": 1, "value": [0.0, 1.0]}},
        }
        doc = {
            "format": "canopy-model", "version": 1,
            "learner": {"kind": "tree", "params": {}},
            "vocab": {"names": ["label_0"], "weather_count": 0},
            "n_features": 1, "models": [tree],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported model version"):
            load_model(path)
