"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget. A summary hook in conftest prints one
PASS/FAIL line per criterion at the end of the run.

Criteria 1 and 2 check the package's F-beta arithmetic against two frozen
reference scoreboards (tests/data/). Known data defects, kept red on
purpose: the first scoreboard's Total row is sample-averaged and therefore
not recomputable from its own printed P/R cells, and six rare-label rows
of the second scoreboard carry fold-averaging drift far above the stated
tolerance. The per-class rows of the first scoreboard and the remaining
rows of the second reproduce exactly as required.
"""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from canopy.classical import LearnerSpec, fit_multioutput, gbm_fit, lda_fit, predict_multioutput
from canopy.data import FeatureMatrix, LabelMatrix, LabelVocabulary, ProbMatrix, make_rng
from canopy.ensemble import MetaLearnerConfig, StackedFeatures, stack_train, weighted_vote
from canopy.metrics import SCHEMES, averaged, fbeta, sample_fbeta
from canopy.nn import Adam, BatchNorm, TrainConfig
from canopy.splits import stratified_kfold
from canopy.thresholds import apply_thresholds, optimize_thresholds

from conftest import Budget, make_vocab, oracle_averaged

DATA = Path(__file__).parent / "data"


def load_scoreboard(name):
    with open(DATA / name, newline="") as fh:
        return list(csv.DictReader(fh))


def test_c01_fbeta_reproduces_single_model_scoreboard():
    """All 18 scoreboard rows: fbeta(P,R,1)/fbeta(P,R,2) within 1e-5 of the
    printed F1/F2 cells."""
    with Budget(1.0):
        rows = load_scoreboard("single_model_scoreboard.csv")
        assert len(rows) == 18
        bad = []
        for row in rows:
            p, r = float(row["precision"]), float(row["recall"])
            for beta, col in ((1, "f1_score"), (2, "f2_score")):
                want = float(row[col])
                got = fbeta(p, r, beta)
                if abs(got - want) >= 1e-5:
                    bad.append(f"{row['class']}: fbeta(P,R,{beta})={got:.6f} "
                               f"vs printed {want:.6f} (diff {abs(got - want):.2e})")
        assert not bad, (
            f"{len(bad)} cell(s) not recomputable at 1e-5 "
            f"({18 - len({b.split(':')[0] for b in bad})}/18 rows consistent): "
            + "; ".join(bad)
        )


def test_c02_stacked_scoreboard_f2_recompute():
    """Per-class rows of the thresholded scoreboard: fbeta(P,R,2) within
    1e-3 of the printed F2."""
    with Budget(1.0):
        rows = [r for r in load_scoreboard("stacked_thresholded_scoreboard.csv")
                if r["class"] != "Total"]
        assert len(rows) == 17
        bad = []
        for row in rows:
            p, r = float(row["precision"]), float(row["recall"])
            want = float(row["f2_score"])
            got = fbeta(p, r, 2)
            if abs(got - want) >= 1e-3:
                bad.append(f"{row['class']}: {got:.6f} vs {want:.6f} "
                           f"(diff {abs(got - want):.2e})")
        assert not bad, (
            f"{len(bad)}/17 rows exceed the 1e-3 fold-averaging slack: " + "; ".join(bad)
        )


def test_c03_averaging_schemes_match_naive_oracle_exactly():
    """500 random instances up to 8x6: all four schemes, exact equality."""
    with Budget(5.0):
        rng = make_rng(20240)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 7))
            vocab = make_vocab(k)
            truth = LabelMatrix(values=(rng.random((n, k)) < 0.45).astype(np.int8),
                                vocab=vocab)
            pred = LabelMatrix(values=(rng.random((n, k)) < 0.55).astype(np.int8),
                               vocab=vocab)
            raw = rng.random(k) + 0.05
            weights = (raw / raw.sum()).tolist()
            for scheme in SCHEMES:
                w = weights if scheme == "weighted" else None
                got = averaged(pred, truth, scheme, beta=2.0, class_weights=w)
                want = oracle_averaged(pred.values, truth.values, scheme, 2.0, weights=w)
                assert (got.precision, got.recall, got.fbeta) == want


def test_c04_threshold_optimizer_matches_exhaustive_search():
    """100 random instances (<=3 labels x <=30 samples): coordinate mode
    within 1e-9 of cross-product grid search; per-class mode exact."""
    with Budget(30.0):
        rng = make_rng(777)
        for _ in range(100):
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

            _, got = optimize_thresholds(pm, tm, beta=2.0, mode="coordinate")
            candidates = [np.unique(probs[:, j]) for j in range(k)]
            best = -1.0
            t = truth
            for combo in itertools.product(*candidates):
                pred = probs >= np.asarray(combo)[None, :]
                tp = (pred & t).sum(axis=1)
                fp = (pred & ~t).sum(axis=1)
                fn = (~pred & t).sum(axis=1)
                den = 5.0 * tp + fp + 4.0 * fn
                per = np.divide(5.0 * tp, den, out=np.zeros(n), where=den > 0)
                best = max(best, float(per.mean()))
            assert abs(got - best) < 1e-9

            cutoffs, _ = optimize_thresholds(pm, tm, beta=2.0, mode="per-class")
            for j in range(k):
                best_s, best_t = -1.0, None
                for th in candidates[j]:
                    pred = probs[:, j] >= th
                    tp = int((pred & t[:, j]).sum())
                    fp = int((pred & ~t[:, j]).sum())
                    fn = int((~pred & t[:, j]).sum())
                    den = 5 * tp + fp + 4 * fn
                    s = 5 * tp / den if den else 0.0
                    if s > best_s:
                        best_s, best_t = s, float(th)
                assert cutoffs[j] == best_t


def test_c05_weighted_vote_brute_force_all_patterns():
    """All 2^11 vote patterns with the reference integral weights
    (sum 24, threshold 12); equal weights reduce to strict majority."""
    with Budget(1.0):
        weights = (3, 3, 2, 2, 2, 3, 2, 3, 2, 1, 1)
        assert sum(weights) == 24
        vocab = make_vocab(1)
        patterns = np.array(
            [[(p >> j) & 1 for j in range(11)] for p in range(2**11)], dtype=np.int8
        )
        preds = [
            LabelMatrix(values=patterns[:, j : j + 1], vocab=vocab) for j in range(11)
        ]
        voted = weighted_vote(preds, weights).values[:, 0]
        votes = patterns @ np.array(weights)
        assert (voted == (votes > 12)).all()

        equal = weighted_vote(preds, [1] * 11).values[:, 0]
        majority = patterns.sum(axis=1) > 5.5
        assert (equal == majority).all()


def test_c06_optimizer_first_step_convergence_and_monotone_max():
    with Budget(5.0):
        rng = make_rng(6)
        # first step magnitude = alpha within 1e-6 relative, nonzero grads
        for amsgrad in (False, True):
            w = rng.normal(size=10)
            start = w.copy()
            g = rng.uniform(0.5, 3.0, size=10) * np.sign(rng.normal(size=10))
            Adam(w, amsgrad=amsgrad).step(w, g)
            np.testing.assert_allclose(np.abs(start - w), 0.001, rtol=1e-6)

        # quadratic bowl reaches |w| < 1e-3 within 5000 steps at defaults
        for amsgrad in (False, True):
            w = make_rng(42).uniform(-0.5, 0.5, size=8)
            opt = Adam(w, amsgrad=amsgrad)
            for _ in range(5000):
                opt.step(w, 2.0 * w)
                if np.linalg.norm(w) < 1e-3:
                    break
            assert np.linalg.norm(w) < 1e-3

        # AMSGrad corrected second moment never decreases
        w = rng.normal(size=5)
        opt = Adam(w, amsgrad=True)
        prev = opt.v_hat_max.copy()
        for _ in range(1000):
            opt.step(w, rng.normal(size=5))
            assert (opt.v_hat_max >= prev).all()
            prev = opt.v_hat_max.copy()


def test_c07_gradient_check_50_random_configurations():
    from test_nn import numeric_gradients, per_array, random_config

    with Budget(10.0):
        for seed in range(50):
            net, x, y = random_config(seed)
            _, analytic = net.loss_and_gradients(x, y)
            analytic = analytic.copy()
            numeric = numeric_gradients(net, x, y)
            # array by array, as before the parameters became one vector
            for a, n in zip(per_array(net, analytic), per_array(net, numeric)):
                denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-4)
                assert np.linalg.norm(a - n) / denom < 1e-4, f"config {seed}"


def test_c08_batch_norm_standardization_and_recovery():
    with Budget(1.0):
        rng = make_rng(8)
        x = rng.normal(3.0, 2.5, size=(64, 5))
        eps = 1e-5
        bn = BatchNorm(5, epsilon=eps)
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        var = out.var(axis=0)
        assert (var <= 1.0 + 1e-12).all() and (var >= 1.0 - 10 * eps).all()

        recover = BatchNorm(5, epsilon=0.0)
        recover.gamma[...] = x.std(axis=0)
        recover.beta[...] = x.mean(axis=0)
        assert np.abs(recover.forward(x, train=True) - x).max() < 1e-9


def test_c09_gradient_boosting_monotone_mse_and_separable_f2():
    with Budget(20.0):
        rng = make_rng(9)
        X = rng.normal(size=(200, 4))
        y = 1.5 * X[:, 0] - 0.8 * X[:, 1] ** 2 + np.sin(2 * X[:, 2]) \
            + 0.1 * rng.normal(size=200)
        model = gbm_fit(X, y, n_stages=100, learning_rate=0.1, max_depth=3)
        F = np.full(200, model.f0)
        prev = float(((y - F) ** 2).mean())
        for tree, gamma in model.stages:
            F = F + model.learning_rate * gamma * tree.predict_value(X)
            mse = float(((y - F) ** 2).mean())
            assert mse <= prev + 1e-12
            prev = mse
        assert len(model.stages) == 100

        # separable 2-label classification through the per-label wrapper
        Xc = rng.normal(size=(150, 3))
        truth = LabelMatrix(
            values=np.column_stack(
                [(Xc[:, 0] > 0), (Xc[:, 0] <= 0)]
            ).astype(np.int8),
            vocab=make_vocab(2),
        )
        spec = LearnerSpec(kind="gbm", params={"n_stages": 40, "learning_rate": 0.2,
                                               "max_depth": 2})
        fitted = fit_multioutput(spec, FeatureMatrix(values=Xc), truth, seed=1)
        probs = predict_multioutput(fitted, FeatureMatrix(values=Xc))
        pred = LabelMatrix(values=(probs.values >= 0.5).astype(np.int8), vocab=truth.vocab)
        assert sample_fbeta(pred, truth) >= 0.95


def test_c10_stratified_split_proportions_partition_coverage():
    with Budget(5.0):
        rng = make_rng(0)
        marginals = np.array(
            [0.70, 0.05, 0.07, 0.18, 0.30, 0.008, 0.02, 0.008, 0.005,
             0.005, 0.11, 0.09, 0.90, 0.20, 0.008, 0.006, 0.18]
        )
        values = (rng.random((1000, 17)) < marginals[None, :]).astype(np.int8)
        truth = LabelMatrix(values=values, vocab=make_vocab(17))
        folds = stratified_kfold(truth, k=5, seed=0)

        seen = np.zeros(1000, dtype=int)
        for f in range(5):
            seen[folds.fold_indices(f)] += 1
        assert (seen == 1).all()  # partition; each sample validates once

        for j in range(17):
            total = int(values[:, j].sum())
            if total < 5:
                continue
            global_prop = total / 1000
            for f in range(5):
                idx = folds.fold_indices(f)
                prop = values[idx, j].sum() / len(idx)
                budget = max(0.02, 1.0 / len(idx))
                assert abs(prop - global_prop) <= budget + 1e-12, (j, f)


def test_c11_lda_direction_and_holdout_accuracy():
    with Budget(2.0):
        rng = make_rng(0)
        cov = np.array([[1.0, 0.1], [0.1, 0.9]])
        mu = np.array([3.5, 0.8])
        a = rng.multivariate_normal([0.0, 0.0], cov, size=200)
        b = rng.multivariate_normal(mu, cov, size=200)
        X = np.vstack([a, b])
        y = np.concatenate([np.zeros(200, dtype=int), np.ones(200, dtype=int)])
        model = lda_fit(X, y, reg_lambda=0.0)

        want = np.linalg.solve(cov, mu)
        got = model.projection[:, 0]
        cos = abs(got @ want) / (np.linalg.norm(got) * np.linalg.norm(want))
        assert np.degrees(np.arccos(min(cos, 1.0))) < 5.0

        at = rng.multivariate_normal([0.0, 0.0], cov, size=200)
        bt = rng.multivariate_normal(mu, cov, size=200)
        Xt = np.vstack([at, bt])
        yt = np.concatenate([np.zeros(200, dtype=int), np.ones(200, dtype=int)])
        assert (model.predict(Xt) == yt).mean() >= 0.95


def test_c12_preprocessing_golden_vectors_and_permutation_identities():
    from canopy.imageprep import augment, preprocess

    with Budget(1.0):
        gray = lambda v: np.full((2, 2, 3), float(v))
        assert (preprocess(gray(0), "tf") == -1.0).all()
        assert (preprocess(gray(255), "tf") == 1.0).all()
        assert (preprocess(gray(127.5), "tf") == 0.0).all()

        px = np.zeros((1, 1, 3))
        px[0, 0] = [123.68, 116.779, 103.939]
        assert (preprocess(px, "caffe") == 0.0).all()

        img = make_rng(12).uniform(0, 255, size=(5, 7, 3))
        for op in ("flip_lr", "flip_ud"):
            assert (augment(augment(img, op), op) == img).all()
        out = img
        for _ in range(4):
            out = augment(out, "rot90_cw")
        assert (out == img).all()
        assert (augment(augment(img, "rot90_cw"), "rot90_ccw") == img).all()


def test_c13_end_to_end_stacking_beats_single_and_vote():
    """2000-sample, 11-model, 17-label synthetic generator with
    heterogeneous skill: tuned meta-learner F2 >= best single tuned - 0.01
    and >= weighted vote - 0.02."""
    with Budget(120.0):
        SEED = 2024
        rng = make_rng(SEED)
        names = tuple(f"w{i}" for i in range(4)) + tuple(f"g{i}" for i in range(13))
        vocab = LabelVocabulary(names=names, weather_count=4)
        n, k, n_models = 2000, 17, 11

        weather = rng.choice(4, size=n, p=[0.55, 0.1, 0.12, 0.23])
        truth_values = np.zeros((n, k), dtype=np.int8)
        truth_values[np.arange(n), weather] = 1
        ground = np.array([0.9, 0.3, 0.2, 0.18, 0.11, 0.09, 0.067, 0.05,
                           0.02, 0.008, 0.008, 0.006, 0.005])
        truth_values[:, 4:] = rng.random((n, 13)) < ground
        truth = LabelMatrix(values=truth_values, vocab=vocab)

        # heterogeneous skill: rising noise plus per-label miscalibration
        base = []
        for noise in np.linspace(0.3, 0.65, n_models):
            gain = rng.uniform(0.55, 0.95, size=k)
            bias = rng.uniform(0.02, 0.25, size=k)
            raw = bias + gain * truth_values + rng.normal(0, noise, size=(n, k))
            base.append(ProbMatrix(values=np.clip(raw, 0.0, 1.0), vocab=vocab))

        va = make_rng(SEED + 1).permutation(n)[1500:]
        val_truth = LabelMatrix(values=truth_values[va], vocab=vocab)

        base_scores = []
        for m in base:
            pm = ProbMatrix(values=m.values[va], vocab=vocab)
            _, score = optimize_thresholds(pm, val_truth, beta=2.0)
            base_scores.append(score)
        best_single = max(base_scores)

        ranks = np.argsort(np.argsort(base_scores))
        weights = [1 + int(r * 3 / n_models) for r in ranks]
        hard = [
            LabelMatrix(values=(m.values[va] >= 0.5).astype(np.int8), vocab=vocab)
            for m in base
        ]
        vote_f2 = sample_fbeta(weighted_vote(hard, weights), val_truth)

        stacked = StackedFeatures(
            values=np.concatenate([m.values for m in base], axis=1),
            n_models=n_models,
            vocab=vocab,
        )
        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=128, max_epochs=40, patience=8,
                              learning_rate=0.01, optimizer="amsgrad", seed=SEED)
        )
        model = stack_train(stacked, truth, config, seed=SEED, val_indices=va)
        meta_val = model.predict(stacked.values[va])
        _, meta_tuned = optimize_thresholds(meta_val, val_truth, beta=2.0)

        assert meta_tuned >= best_single - 0.01, (meta_tuned, best_single)
        assert meta_tuned >= vote_f2 - 0.02, (meta_tuned, vote_f2)
        # the expected ordering: stacking with tuned cutoffs on top
        assert meta_tuned > best_single
