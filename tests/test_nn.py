import json
import math

import numpy as np
import pytest

from canopy.data import make_rng
from canopy.nn import (
    Adam,
    BatchNorm,
    Dense,
    Network,
    NetworkSpec,
    OptimizerDiverged,
    load_checkpoint,
    loss_and_grad,
    predict_head,
    save_checkpoint,
    sigmoid,
    softmax,
)


class TestActivations:
    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = make_rng(0).uniform(-30, 30, size=500)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_saturates_finite(self):
        x = np.array([-50.0, 50.0])
        s = sigmoid(x)
        assert np.isfinite(s).all()
        assert 0.0 <= s[0] < 1e-20
        assert 1.0 - 1e-15 <= s[1] <= 1.0

    def test_softmax_uniform_on_constant_rows(self):
        z = np.full((3, 4), 2.7)
        np.testing.assert_allclose(softmax(z), 0.25, atol=1e-15)

    def test_softmax_rows_sum_to_one_for_large_inputs(self):
        z = make_rng(1).uniform(-50, 50, size=(20, 6))
        p = softmax(z)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestBatchNorm:
    def test_hand_computed_normalization(self):
        bn = BatchNorm(1, epsilon=0.0)
        out = bn.forward(np.array([[1.0], [2.0], [3.0]]), train=True)
        np.testing.assert_allclose(
            out[:, 0], [-1.224745, 0.0, 1.224745], atol=1e-6
        )

    def test_gamma_sigma_beta_mu_recovers_input(self):
        rng = make_rng(2)
        x = rng.normal(2.0, 3.0, size=(16, 4))
        bn = BatchNorm(4, epsilon=0.0)
        bn.gamma[...] = x.std(axis=0)  # biased, matching the batch statistic
        bn.beta[...] = x.mean(axis=0)
        np.testing.assert_allclose(bn.forward(x, train=True), x, atol=1e-9)

    def test_train_mode_standardizes(self):
        rng = make_rng(3)
        x = rng.normal(5.0, 2.0, size=(64, 3))
        bn = BatchNorm(3, epsilon=1e-5)
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        var = out.var(axis=0)
        assert (var <= 1.0 + 1e-12).all() and (var >= 1.0 - 10 * 1e-5).all()

    def test_infer_mode_is_pure(self):
        rng = make_rng(4)
        bn = BatchNorm(2)
        bn.forward(rng.normal(size=(8, 2)), train=True)  # populate running stats
        x = rng.normal(size=(5, 2))
        first = bn.forward(x, train=False)
        second = bn.forward(x, train=False)
        assert (first == second).all()

    def test_single_row_train_batch_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError, match="batch"):
            bn.forward(np.zeros((1, 2)), train=True)

    def test_running_stats_momentum_update(self):
        bn = BatchNorm(1, momentum=0.99)
        x = np.array([[0.0], [2.0]])  # batch mean 1, biased var 1
        bn.forward(x, train=True)
        assert bn.running_mean[0] == pytest.approx(0.99 * 0.0 + 0.01 * 1.0)
        assert bn.running_var[0] == pytest.approx(0.99 * 1.0 + 0.01 * 1.0)


class TestLosses:
    def test_near_perfect_prediction_is_near_zero(self):
        logits = np.array([[30.0, -30.0, -30.0]])
        truth = np.array([[1.0, 0.0, 0.0]])
        loss, _ = loss_and_grad("bce", logits, truth)
        assert loss < 1e-10

    def test_uniform_softmax_weather_term_is_ln4(self):
        logits = np.zeros((5, 4))
        truth = np.zeros((5, 4))
        truth[:, 2] = 1.0
        loss, _ = loss_and_grad("softmax_ce", logits, truth)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_bce_at_half_is_ln2_for_any_truth(self):
        rng = make_rng(5)
        truth = (rng.random((7, 3)) < 0.5).astype(float)
        loss, _ = loss_and_grad("bce", np.zeros((7, 3)), truth)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hybrid_is_sum_of_blocks(self):
        rng = make_rng(6)
        logits = rng.normal(size=(6, 7))
        weather = np.zeros((6, 4))
        weather[np.arange(6), rng.integers(0, 4, size=6)] = 1.0
        ground = (rng.random((6, 3)) < 0.5).astype(float)
        truth = np.concatenate([weather, ground], axis=1)
        total, _ = loss_and_grad("hybrid", logits, truth, weather_count=4)
        wl, _ = loss_and_grad("softmax_ce", logits[:, :4], weather)
        gl, _ = loss_and_grad("bce", logits[:, 4:], ground)
        assert total == pytest.approx(wl + gl, abs=1e-12)

    @pytest.mark.parametrize("weather_count", [0, 5])
    @pytest.mark.parametrize("head", [
        lambda z, wc: loss_and_grad("hybrid", z, z, weather_count=wc),
        lambda z, wc: predict_head("hybrid", z, weather_count=wc),
        lambda z, wc: NetworkSpec(in_dim=2, out_dim=z.shape[1], loss="hybrid", weather_count=wc),
    ], ids=["loss_and_grad", "predict_head", "NetworkSpec"])
    def test_hybrid_requires_weather_block(self, head, weather_count):
        with pytest.raises(ValueError, match="weather_count"):
            head(np.zeros((2, 5)), weather_count)

    def test_softmax_ce_requires_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            loss_and_grad("softmax_ce", np.zeros((2, 3)), np.array([[1.0, 1.0, 0.0]] * 2))


class TestAdam:
    def test_first_step_is_learning_rate_sized(self):
        rng = make_rng(7)
        w = rng.normal(size=12)
        start = w.copy()
        g = rng.uniform(0.5, 2.0, size=12) * np.sign(rng.normal(size=12))
        opt = Adam(w)
        opt.step(w, g)
        delta = start - w
        assert np.sign(delta).tolist() == np.sign(g).tolist()
        np.testing.assert_allclose(np.abs(delta), 0.001, rtol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        w = np.ones(5)
        opt = Adam(w)
        for _ in range(10):
            opt.step(w, np.zeros(5))
        assert (w == 1.0).all()

    def test_defaults(self):
        opt = Adam(np.zeros(1))
        assert (opt.alpha, opt.beta1, opt.beta2, opt.epsilon) == (0.001, 0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("setting", ["alpha", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
    def test_non_finite_or_non_positive_setting_refused(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be positive and finite"):
            Adam(np.zeros(2), **{setting: value})

    @pytest.mark.parametrize("w_size, g_size", [(3, 2), (2, 3), (3, 4)])
    def test_shape_mismatch_refused_before_any_write(self, w_size, g_size):
        opt = Adam(np.zeros(3))
        w = np.ones(w_size)
        with pytest.raises(ValueError, match="do not match the optimizer's"):
            opt.step(w, np.zeros(g_size))
        assert (w == 1.0).all() and opt.t == 0 and not opt.m.any() and not opt.v.any()

    def test_non_finite_gradient_aborts(self):
        w = np.ones(3)
        opt = Adam(w)
        with pytest.raises(OptimizerDiverged, match="non-finite"):
            opt.step(w, np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("amsgrad", [False, True])
    def test_quadratic_bowl_converges(self, amsgrad):
        w = make_rng(42).uniform(-0.5, 0.5, size=8)
        opt = Adam(w, amsgrad=amsgrad)
        for step in range(5000):
            opt.step(w, 2.0 * w)
            if np.linalg.norm(w) < 1e-3:
                break
        assert np.linalg.norm(w) < 1e-3


class TestAmsgrad:
    def test_constant_gradients_match_adam_trajectory(self):
        g = np.array([0.3, -0.7, 1.1])
        w_adam, w_ams = np.zeros(3), np.zeros(3)
        adam, ams = Adam(w_adam), Adam(w_ams, amsgrad=True)
        for _ in range(10):
            adam.step(w_adam, g.copy())
            ams.step(w_ams, g.copy())
            # the corrected second moment is the constant g^2 either way;
            # the running max only reorders ulp-level rounding
            np.testing.assert_allclose(w_adam, w_ams, rtol=1e-12, atol=1e-18)

    def test_spike_keeps_denominator_at_spike_level(self):
        # hand trace: g1 = 10 then zeros; after the spike the corrected
        # second moment is exactly 100, and AMSGrad pins it there
        w_adam, w_ams = np.zeros(1), np.zeros(1)
        adam, ams = Adam(w_adam), Adam(w_ams, amsgrad=True)
        spike = np.array([10.0])
        adam.step(w_adam, spike)
        ams.step(w_ams, spike)
        assert ams.v_hat_max[0] == pytest.approx(100.0)
        for t in range(2, 5):
            adam.step(w_adam, np.zeros(1))
            ams.step(w_ams, np.zeros(1))
            assert ams.v_hat_max[0] == pytest.approx(100.0)
            # Adam's corrected second moment decays below the spike level
            v_hat_adam = adam.v[0] / (1 - 0.999**t)
            assert v_hat_adam < 100.0

    def test_v_hat_max_non_decreasing_over_random_steps(self):
        rng = make_rng(8)
        w = rng.normal(size=6)
        opt = Adam(w, amsgrad=True)
        prev = opt.v_hat_max.copy()
        for _ in range(1000):
            opt.step(w, rng.normal(size=6))
            assert (opt.v_hat_max >= prev - 0.0).all()
            prev = opt.v_hat_max.copy()


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def relu_margin(network: Network, x: np.ndarray) -> float:
    """Smallest |pre-activation| feeding a relu, in train mode."""
    from canopy.nn.layers import Activation, BatchNorm as BN, Dense as D

    margin = np.inf
    out = x
    for layer in network.layers:
        if isinstance(layer, D):
            z = out @ layer.W + layer.b
            if layer.activation == "relu":
                margin = min(margin, float(np.abs(z).min()))
            out = layer.forward(out, train=True)
        elif isinstance(layer, Activation):
            if layer.name == "relu":
                margin = min(margin, float(np.abs(out).min()))
            out = layer.forward(out, train=True)
        else:
            out = layer.forward(out, train=True)
    return margin


def numeric_gradients(network: Network, x, y, h=1e-5):
    p = network.theta
    g = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + h
        up, _ = loss_and_grad(
            network.spec.loss, network.forward(x, train=True), y,
            network.spec.weather_count,
        )
        p[idx] = orig - h
        down, _ = loss_and_grad(
            network.spec.loss, network.forward(x, train=True), y,
            network.spec.weather_count,
        )
        p[idx] = orig
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


def per_array(network: Network, vector: np.ndarray) -> list[np.ndarray]:
    """``vector`` (laid out like ``theta``) cut into one piece per PARAMS array."""
    return np.split(vector, [stop for _, _, stop in network.spans[:-1]])


def random_config(seed: int):
    """A random small net + batch with relu pre-activations clear of 0."""
    rng = make_rng(seed)
    for attempt in range(50):
        loss = ("bce", "softmax_ce", "hybrid")[int(rng.integers(3))]
        out_dim = int(rng.integers(3, 7))
        wc = int(rng.integers(2, out_dim)) if loss == "hybrid" else 0
        spec = NetworkSpec(
            in_dim=int(rng.integers(2, 6)),
            out_dim=out_dim,
            hidden=tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))),
            hidden_activation=("relu", "sigmoid", "identity")[int(rng.integers(3))],
            batch_norm=bool(rng.integers(2)),
            loss=loss,
            weather_count=wc,
        )
        net = Network.init(spec, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(int(rng.integers(3, 9)), spec.in_dim))
        if loss == "bce":
            y = (rng.random((len(x), out_dim)) < 0.5).astype(float)
        elif loss == "softmax_ce":
            y = np.zeros((len(x), out_dim))
            y[np.arange(len(x)), rng.integers(0, out_dim, size=len(x))] = 1.0
        else:
            y = np.zeros((len(x), out_dim))
            y[np.arange(len(x)), rng.integers(0, wc, size=len(x))] = 1.0
            y[:, wc:] = (rng.random((len(x), out_dim - wc)) < 0.5).astype(float)
        if relu_margin(net, x) > 1e-3:
            return net, x, y
    raise AssertionError("could not build a kink-safe configuration")


class TestGradientCheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_analytic_matches_central_differences(self, seed):
        net, x, y = random_config(seed)
        _, analytic = net.loss_and_gradients(x, y, train=True)
        analytic = analytic.copy()
        numeric = numeric_gradients(net, x, y)
        # compare array by array: one norm over the whole vector would let a
        # small array's error hide behind a large one
        for a, n in zip(per_array(net, analytic), per_array(net, numeric)):
            # floor the denominator: a bias feeding batch norm has an exactly
            # zero gradient, where both sides are pure rounding noise
            denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-4)
            assert np.linalg.norm(a - n) / denom < 1e-4


class TestTraining:
    def separable_problem(self, rng, n=80):
        # complement column guarantees a positive label per row, so a
        # perfect predictor scores sample-F2 = 1
        x = rng.normal(size=(n, 3))
        y = np.column_stack([(x[:, 0] > 0), (x[:, 1] > 0), (x[:, 0] <= 0)]).astype(float)
        return x, y

    def train_small(self, seed=0, **overrides):
        from canopy.nn import TrainConfig, train

        rng = make_rng(seed)
        x, y = self.separable_problem(rng)
        xv, yv = self.separable_problem(rng, n=30)
        spec = NetworkSpec(in_dim=3, out_dim=3, hidden=(8,), loss="bce")
        net = Network.init(spec, seed=seed)
        defaults = dict(batch_size=16, max_epochs=150, patience=150,
                        learning_rate=0.01, seed=seed)
        defaults.update(overrides)
        return train(net, x, y, xv, yv, TrainConfig(**defaults)), x, y

    def test_loss_drops_on_separable_data(self):
        result, _, _ = self.train_small()
        losses = result.history["train_loss"]
        assert losses[min(49, len(losses) - 1)] < losses[0]  # within 50 epochs
        assert min(losses) < 0.35

    def test_patience_one_never_improving_stops_after_two_epochs(self):
        from canopy.nn import TrainConfig, train

        rng = make_rng(1)
        x, y = self.separable_problem(rng)
        spec = NetworkSpec(in_dim=3, out_dim=3, hidden=(4,), loss="bce")
        net = Network.init(spec, seed=1)
        # zero learning rate: the monitored value can never improve
        cfg = TrainConfig(learning_rate=1e-30, max_epochs=50, patience=1, seed=1,
                          min_delta=1e-12)
        result = train(net, x, y, x, y, cfg)
        assert result.epochs_run == 2

    def test_fixed_seed_bit_identical_history(self):
        r1, _, _ = self.train_small(seed=3)
        r2, _, _ = self.train_small(seed=3)
        assert r1.history == r2.history

    def test_checkpoint_restores_max_validation_f2(self):
        from canopy.metrics import sample_fbeta

        result, _, _ = self.train_small(seed=4)
        rng = make_rng(4)
        _, _ = self.separable_problem(rng)
        xv, yv = self.separable_problem(rng, n=30)
        restored_probs = result.network.predict_proba(xv)
        f2 = sample_fbeta((restored_probs >= 0.5).astype(int), yv.astype(int))
        assert f2 == pytest.approx(max(result.history["val_f2"]), abs=1e-12)
        assert result.best_val_f2 == max(result.history["val_f2"])

    def test_divergence_aborts_with_finite_state(self):
        from canopy.nn import TrainConfig, TrainingDiverged, train

        rng = make_rng(5)
        x, y = self.separable_problem(rng)
        spec = NetworkSpec(in_dim=3, out_dim=3, hidden=(6, 6), loss="softmax_ce")
        y = np.zeros_like(y)
        y[:, 0] = 1.0
        net = Network.init(spec, seed=5)
        cfg = TrainConfig(learning_rate=1e160, max_epochs=10, patience=10, seed=5)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train(net, x, y, x, y, cfg)
        assert all(np.isfinite(s).all() for s in err.value.last_state)

    def test_non_finite_gradient_with_finite_loss_aborts(self):
        """Adam.step's gradient check stops training before it writes."""
        from canopy.nn import TrainConfig, TrainingDiverged, train

        rng = make_rng(7)
        x, y = self.separable_problem(rng)
        net = Network.init(NetworkSpec(in_dim=3, out_dim=3, hidden=(4,), loss="bce"), seed=7)
        original = net.loss_and_gradients
        calls = []
        states = []

        def poisoned(*args, **kwargs):
            loss, grad = original(*args, **kwargs)
            calls.append(1)
            states.append(net.get_state())
            if len(calls) == 12:  # epoch 3 of 5 batches per epoch
                net.layers[0].db[0] = np.inf  # lands in grad, the gradient vector
            return loss, grad

        net.loss_and_gradients = poisoned
        cfg = TrainConfig(batch_size=16, max_epochs=10, patience=10, seed=7)
        with pytest.raises(TrainingDiverged,
                           match="epoch 3: non-finite gradient in layer 0 b at step 12") as err:
            train(net, x, y, x, y, cfg)
        assert len(err.value.history["val_f2"]) == 2
        assert all((a == b).all() for a, b in zip(err.value.last_state, states[-1]))

    @pytest.mark.parametrize("setting,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("epsilon", math.nan), ("epsilon", math.inf),
    ])
    def test_non_finite_optimizer_setting_refused_before_training(self, setting, value):
        from canopy.nn import TrainConfig, train

        rng = make_rng(8)
        x, y = self.separable_problem(rng, n=20)
        net = Network.init(NetworkSpec(in_dim=3, out_dim=3, hidden=(4,)), seed=8)
        start = net.get_state()
        name = "alpha" if setting == "learning_rate" else setting
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            train(net, x, y, x, y, TrainConfig(max_epochs=2, **{setting: value}))
        assert all((a == b).all() for a, b in zip(net.get_state(), start))

    @pytest.mark.parametrize("setting, value", [
        ("batch_size", True), ("batch_size", 4.5), ("max_epochs", 2.5), ("patience", "3"),
        ("seed", 2.9), ("seed", True), ("seed", "3"),
    ])
    def test_count_settings_must_be_integers(self, setting, value):
        """batch_size=True used to train with batches of one, and a float count
        to fail deep inside training with a TypeError naming no setting; a seed
        of 2.9 used to be kept and train as seed 2."""
        from canopy.nn import TrainConfig

        with pytest.raises(TypeError, match=f"^{setting} must be an integer, got "):
            TrainConfig(**{setting: value})

    @pytest.mark.parametrize("setting, value", [
        ("in_dim", 2.5), ("out_dim", True), ("hidden", (2.7,)), ("hidden", (True,)),
        ("hidden", ("3",)), ("weather_count", True),
    ])
    def test_network_widths_must_be_integers(self, setting, value):
        """A hidden width of 2.7 used to build a layer of 2, True one of 1 and
        "3" one of 3; a weather_count of 1.5 failed as a slice index."""
        name = "hidden widths" if setting == "hidden" else setting
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            NetworkSpec(**{"in_dim": 3, "out_dim": 2, setting: value})

    def test_counts_are_stored_as_plain_ints(self):
        from canopy.nn import TrainConfig

        spec = NetworkSpec(in_dim=np.int64(3), out_dim=np.int32(2), hidden=(np.int64(4),),
                           loss="hybrid", weather_count=np.int64(1))
        cfg = TrainConfig(batch_size=np.int64(8), max_epochs=np.int16(2), patience=np.int64(1),
                          seed=np.uint32(5))
        counts = (spec.in_dim, spec.out_dim, *spec.hidden, spec.weather_count, cfg.batch_size,
                  cfg.max_epochs, cfg.patience, cfg.seed)
        assert [type(c) for c in counts] == [int] * 8

    @pytest.mark.parametrize("value", [-1e-3, -math.inf, math.nan, math.inf])
    def test_negative_or_non_finite_min_delta_refused(self, value):
        """A NaN min_delta used to make every epoch stale, so training
        stopped after ``patience`` epochs while the val loss still fell."""
        from canopy.nn import TrainConfig

        with pytest.raises(ValueError, match="min_delta must be non-negative and finite"):
            TrainConfig(min_delta=value)

    def test_empty_training_set_refused_before_the_first_step(self):
        """Without batch norm, no rows used to run every epoch with no batch
        and record a NaN train loss."""
        from canopy.nn import TrainConfig, train

        rng = make_rng(9)
        xv, yv = self.separable_problem(rng, n=10)
        net = Network.init(NetworkSpec(in_dim=3, out_dim=3, hidden=(4,)), seed=9)
        start = net.get_state()
        with pytest.raises(ValueError, match="^training data has 0 rows"):
            train(net, np.zeros((0, 3)), np.zeros((0, 3)), xv, yv, TrainConfig(max_epochs=2))
        assert all((a == b).all() for a, b in zip(net.get_state(), start))

    @pytest.mark.parametrize("n_x,n_y", [(10, 7), (7, 10)])
    def test_row_count_mismatch_refused_before_the_first_step(self, n_x, n_y):
        """10 rows of x with 7 of y used to raise a bare IndexError; a longer
        y trained silently on its first rows."""
        from canopy.nn import TrainConfig, train

        rng = make_rng(10)
        x, _ = self.separable_problem(rng, n=n_x)
        _, y = self.separable_problem(rng, n=n_y)
        net = Network.init(NetworkSpec(in_dim=3, out_dim=3, hidden=(4,)), seed=10)
        start = net.get_state()
        with pytest.raises(ValueError, match=f"^x has {n_x} training rows but y has {n_y}$"):
            train(net, x, y, x, y[:n_x], TrainConfig(max_epochs=2))
        assert all((a == b).all() for a, b in zip(net.get_state(), start))

    @pytest.mark.parametrize("x_val_shape,y_val_shape,message", [
        ((10, 3), (7, 3), "x_val has 10 rows but y_val has 7"),
        ((7, 3), (10, 3), "x_val has 7 rows but y_val has 10"),
        ((10, 4), (10, 3), r"x_val has shape \(10, 4\), the network needs 3 columns"),
        ((10, 3), (10, 2), r"y_val has shape \(10, 2\), the network needs 3 columns"),
        ((10,), (10, 3), r"x_val has shape \(10,\), the network needs 3 columns"),
    ])
    def test_bad_validation_data_refused_before_the_first_step(
        self, x_val_shape, y_val_shape, message
    ):
        """Unequal validation row counts used to fail only after the first
        epoch had updated the network, in ``loss_and_grad`` with a message
        that did not name the validation data."""
        from canopy.nn import TrainConfig, train

        rng = make_rng(11)
        x, y = self.separable_problem(rng, n=40)
        net = Network.init(NetworkSpec(in_dim=3, out_dim=3, hidden=(4,), batch_norm=True), seed=11)
        start = net.get_state()
        with pytest.raises(ValueError, match=f"^validation data: {message}$"):
            train(net, x, y, np.zeros(x_val_shape), np.zeros(y_val_shape),
                  TrainConfig(max_epochs=2))
        assert all((a == b).all() for a, b in zip(net.get_state(), start))

    def test_batch_norm_dropout_network_trains(self):
        from canopy.nn import TrainConfig, train

        rng = make_rng(6)
        x, y = self.separable_problem(rng, n=120)
        spec = NetworkSpec(
            in_dim=3, out_dim=3, hidden=(16,), batch_norm=True, dropout=0.25, loss="bce"
        )
        net = Network.init(spec, seed=6)
        result = train(net, x, y, x, y, TrainConfig(batch_size=32, max_epochs=120,
                                                    patience=120, learning_rate=0.01,
                                                    seed=6))
        assert max(result.history["val_f2"]) > 0.9


class TestPredict:
    def test_zero_logit_sigmoid_layer_predicts_half(self):
        from canopy.nn.layers import Dense as D

        spec = NetworkSpec(in_dim=2, out_dim=2, hidden=(), loss="bce")
        net = Network(spec, [D(np.zeros((2, 2)), np.zeros(2))])
        assert (net.predict_proba(np.ones((3, 2))) == 0.5).all()

    def test_batch_equals_concatenated_rows(self):
        net = Network.init(NetworkSpec(in_dim=4, out_dim=3, hidden=(5,),
                                       batch_norm=True, loss="bce"), seed=7)
        rng = make_rng(7)
        net.forward(rng.normal(size=(16, 4)), train=True)  # settle running stats
        x = rng.normal(size=(6, 4))
        batch = net.predict_proba(x)
        rows = np.vstack([net.predict_proba(x[i : i + 1]) for i in range(6)])
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    def test_softmax_head_rows_sum_to_one(self):
        net = Network.init(NetworkSpec(in_dim=3, out_dim=4, hidden=(5,),
                                       loss="softmax_ce"), seed=8)
        p = net.predict_proba(make_rng(8).normal(size=(10, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_feature_width_mismatch(self):
        net = Network.init(NetworkSpec(in_dim=3, out_dim=2, hidden=(4,), loss="bce"), seed=9)
        with pytest.raises(ValueError, match="width"):
            net.predict_proba(np.zeros((2, 5)))

    def test_outputs_in_unit_interval(self):
        net = Network.init(NetworkSpec(in_dim=3, out_dim=6, hidden=(4,), loss="hybrid",
                                       weather_count=4), seed=10)
        p = net.predict_proba(make_rng(10).normal(size=(8, 3)) * 10)
        assert (p >= 0).all() and (p <= 1).all()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = Network.init(NetworkSpec(in_dim=5, out_dim=3, hidden=(6,), batch_norm=True,
                                       dropout=0.25, loss="bce"), seed=11)
        rng = make_rng(11)
        net.forward(rng.normal(size=(12, 5)), train=True, rng=rng)
        path = tmp_path / "model.json"
        save_checkpoint(path, net, meta={"seed": 11})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 11}
        assert loaded.spec == net.spec
        x = rng.normal(size=(4, 5))
        assert (loaded.predict_proba(x) == net.predict_proba(x)).all()

    def test_version_and_format_guards(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a"):
            load_checkpoint(path)
        net = Network.init(NetworkSpec(in_dim=2, out_dim=2, hidden=(2,), loss="bce"), seed=0)
        good = tmp_path / "good.json"
        save_checkpoint(good, net)
        doc = json.loads(good.read_text())
        doc["version"] = 99
        bad2 = tmp_path / "bad2.json"
        bad2.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad2)


class TestParameterVector:
    """Every layer array is a view into the network's one state vector:
    first the PARAMS arrays in layer order, which make up ``theta``, then the
    batch-norm running statistics. The PARAMS gradients are views into one
    gradient vector laid out like ``theta``."""

    SPEC = NetworkSpec(in_dim=4, out_dim=5, hidden=(6, 3), batch_norm=True, dropout=0.25,
                       loss="hybrid", weather_count=2)

    @staticmethod
    def check_layout(net: Network) -> None:
        assert net.theta.shape == net.grad.shape and net.theta.ndim == 1
        assert net.theta.base is net.state and net.theta.ctypes.data == net.state.ctypes.data
        start, spans = 0, []
        for i, layer in enumerate(net.layers):
            for name in layer.PARAMS:
                param, grad = getattr(layer, name), getattr(layer, "d" + name)
                assert np.shares_memory(param, net.theta) and np.shares_memory(grad, net.grad)
                stop = start + param.size
                assert np.array_equal(net.theta[start:stop], param.ravel())
                assert np.array_equal(net.grad[start:stop], grad.ravel())
                spans.append((i, name, stop))
                start = stop
        assert start == net.theta.size and net.spans == spans
        for layer in net.layers:
            for name in layer.ARRAYS[len(layer.PARAMS):]:
                stat = getattr(layer, name)
                stop = start + stat.size
                assert np.shares_memory(stat, net.state[start:stop])
                assert not np.shares_memory(stat, net.theta)
                assert not np.shares_memory(stat, net.grad)
                assert np.array_equal(net.state[start:stop], stat.ravel())
                start = stop
        assert start == net.state.size and net.state.ndim == 1

    def trained(self) -> Network:
        from canopy.nn import TrainConfig, train

        rng = make_rng(12)
        x = rng.normal(size=(40, 4))
        y = np.zeros((40, 5))
        y[np.arange(40), rng.integers(0, 2, size=40)] = 1.0
        y[:, 2:] = rng.random((40, 3)) < 0.5
        net = Network.init(self.SPEC, seed=12)
        cfg = TrainConfig(batch_size=8, max_epochs=4, patience=4, optimizer="amsgrad", seed=12)
        return train(net, x, y, x, y, cfg).network

    def test_init(self):
        net = Network.init(self.SPEC, seed=1)
        self.check_layout(net)
        _, grad = net.loss_and_gradients(make_rng(1).normal(size=(5, 4)),
                                         np.tile([1.0, 0, 1, 0, 1], (5, 1)), rng=make_rng(1))
        assert grad is net.grad and net.grad.any()

    def test_train(self):
        net = self.trained()
        self.check_layout(net)
        assert (net.layers[1].running_mean != 0).all()  # forward updated them in place

    def statistics(self, net: Network) -> list[np.ndarray]:
        return [getattr(layer, name) for layer in net.layers
                for name in layer.ARRAYS[len(layer.PARAMS):]]

    def test_set_state(self):
        net = self.trained()
        state = net.get_state()
        # theta, then the two BN layers' mean and variance (widths 6 and 3)
        assert state.shape == (net.theta.size + 2 * (6 + 3),)
        assert not np.shares_memory(state, net.state)
        net.set_state(np.zeros_like(state))
        self.check_layout(net)
        assert not net.layers[0].W.any() and not net.theta.any()
        assert not any(stat.any() for stat in self.statistics(net))
        net.set_state(state)
        self.check_layout(net)
        assert net.get_state().tobytes() == state.tobytes()

    def test_statistics_stay_views_of_state(self, tmp_path):
        """A train step and a checkpoint load write the batch-norm running
        statistics in place: each stays the object the network was built
        with, a view into ``state``."""
        from canopy.nn import TrainConfig, train

        net = Network.init(self.SPEC, seed=13)
        stats = self.statistics(net)
        before = net.get_state()
        rng = make_rng(13)
        x, y = rng.normal(size=(8, 4)), np.tile([1.0, 0, 1, 0, 1], (8, 1))
        train(net, x, y, x, y, TrainConfig(batch_size=8, max_epochs=1, seed=13))
        assert all(a is b for a, b in zip(self.statistics(net), stats, strict=True))
        assert (net.state[net.theta.size:] != before[net.theta.size:]).any()
        self.check_layout(net)
        save_checkpoint(tmp_path / "net.json", net)
        loaded, _ = load_checkpoint(tmp_path / "net.json")
        self.check_layout(loaded)
        assert loaded.state.tobytes() == net.state.tobytes()

    def test_checkpoint_save_load_save_is_byte_identical(self, tmp_path):
        net = self.trained()
        save_checkpoint(tmp_path / "a.json", net, meta={"seed": 12})
        loaded, _ = load_checkpoint(tmp_path / "a.json")
        self.check_layout(loaded)
        assert (loaded.theta == net.theta).all()
        save_checkpoint(tmp_path / "b.json", loaded, meta={"seed": 12})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
