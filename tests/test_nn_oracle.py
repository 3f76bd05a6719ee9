"""canopy.nn's training step against the forms in reference_nn: Adam's
one-array step against the list loop, the maskless sigmoid against the
masked one, the in-place dense and batch-norm layers and losses against
the ones that built every intermediate as a new array, and each loss, taken
from ``predict_head``'s probabilities, against each head applied inside its
own loss. Parameters, moments,
activations, running statistics, losses and gradients are compared byte for
byte, NaN and infinities included; a network's first layer must compute no
input gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canopy.classical.gbm import sigmoid as gbm_sigmoid
from canopy.data import make_rng
from canopy.nn import (Activation, Adam, BatchNorm, Dense, Dropout, Network, NetworkSpec,
                       OptimizerDiverged, head_loss, loss_and_grad, predict_head, sigmoid)

from reference_nn import (ReferenceAdam, ReferenceBatchNorm, ReferenceDense, reference_bce,
                          reference_loss_and_grad, reference_sigmoid)

STEPS = 300


@settings(max_examples=60, deadline=None)
@given(
    amsgrad=st.booleans(),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    alpha=st.sampled_from([1e-3, 1e-2, 0.5]),
)
def test_adam_step_matches_the_list_loop(amsgrad, size, seed, zero_share, alpha):
    """300 steps of gradients whose magnitudes run from 1e-8 to 1e3, with a
    drawn share of zero entries and every 50th gradient all zero."""
    rng = make_rng(seed)
    w = rng.normal(size=size)
    w_ref = w.copy()
    opt = Adam(w, alpha, amsgrad)
    ref = ReferenceAdam([w_ref], alpha, amsgrad=amsgrad)
    for step in range(STEPS):
        g = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-8, 3, size=size)
        g[rng.random(size) < zero_share] = 0.0
        if step % 50 == 49:
            g[:] = 0.0
        opt.step(w, g)
        ref.step([w_ref], [g])
        assert w.tobytes() == w_ref.tobytes(), f"step {step + 1}"
    assert opt.t == ref.t == STEPS
    assert opt.m.tobytes() == ref.m[0].tobytes()
    assert opt.v.tobytes() == ref.v[0].tobytes()
    if amsgrad:
        assert opt.v_hat_max.tobytes() == ref.v_hat_max[0].tobytes()
    else:
        assert opt.v_hat_max is None and ref.v_hat_max is None


@pytest.mark.parametrize("amsgrad", [False, True])
def test_non_finite_gradient_refused_like_the_list_loop(amsgrad):
    """Both refuse a NaN or infinite gradient before writing anything."""
    w, w_ref = np.ones(4), np.ones(4)
    opt, ref = Adam(w, amsgrad=amsgrad), ReferenceAdam([w_ref], amsgrad=amsgrad)
    for bad in (math.nan, math.inf, -math.inf):
        g = np.array([0.5, bad, -0.5, 0.0])
        with pytest.raises(OptimizerDiverged):
            opt.step(w, g)
        with pytest.raises(OptimizerDiverged):
            ref.step([w_ref], [g])
        assert w.tobytes() == w_ref.tobytes() == np.ones(4).tobytes()
        assert opt.t == ref.t == 0


SPECIAL = [0.0, -0.0, 700.0, -700.0, -800.0, math.inf, -math.inf, math.nan, -math.nan]
ELEMENTS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(), (0,), (0, 17), (1,), (7, 3), (128, 17)]).flatmap(
    lambda shape: arrays(np.float64, shape, elements=ELEMENTS)))
def test_sigmoid_matches_the_masked_form(x):
    want = reference_sigmoid(x)
    got = sigmoid(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sigmoid_special_values_byte_for_byte():
    assert gbm_sigmoid is sigmoid  # the boosting loss reads the same function
    x = np.array(SPECIAL)
    assert np.signbit(x[-1]) and not np.signbit(x[-2])  # both NaN signs
    assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
    for v in SPECIAL:
        assert sigmoid(v).tobytes() == reference_sigmoid(v).tobytes()
        assert sigmoid(v).shape == ()


# 2 rows, the folded trailing singleton of a batch of 128 (129), and 130
BATCHES = st.sampled_from([2, 3, 129, 130])


def same(got, want):
    """Byte-identical arrays (or floats) of one shape and dtype."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def wide_values(rng, shape):
    """Normal values scaled by 10**U(-3, 3), with a few exact zeros."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    x[rng.random(shape) < 0.05] = 0.0
    return x


@settings(max_examples=60, deadline=None)
@given(m=BATCHES, in_dim=st.integers(1, 9), out_dim=st.integers(1, 9),
       activation=st.sampled_from(["identity", "relu", "sigmoid"]), seed=st.integers(0, 2**32 - 1))
def test_dense_matches_the_reference(m, in_dim, out_dim, activation, seed):
    """Output, dW, db and the input gradient; without the input gradient
    the layer writes the same dW and db and returns None."""
    rng = make_rng(seed)
    W, b = rng.normal(size=(in_dim, out_dim)), rng.normal(size=out_dim)
    x, grad = wide_values(rng, (m, in_dim)), rng.normal(size=(m, out_dim))
    layer, ref = Dense(W.copy(), b.copy(), activation), ReferenceDense(W, b, activation)
    x_before = x.tobytes()
    assert same(layer.forward(x, train=True), ref.forward(x, train=True))
    assert same(layer.backward(grad), ref.backward(grad))
    assert same(layer.dW, ref.dW) and same(layer.db, ref.db)
    layer.dW[...] = layer.db[...] = np.nan
    assert layer.backward(grad, input_grad=False) is None
    assert same(layer.dW, ref.dW) and same(layer.db, ref.db)
    assert x.tobytes() == x_before


@settings(max_examples=80, deadline=None)
@given(m=BATCHES, width=st.integers(1, 9), constant=st.integers(0, 9),
       epsilon=st.sampled_from([0.0, 1e-5]), seed=st.integers(0, 2**32 - 1))
def test_batch_norm_matches_the_reference(m, width, constant, epsilon, seed):
    """Train-mode output, running statistics, dgamma, dbeta and the input
    gradient over two steps, then the inference output, with ``constant``
    zero-variance columns (epsilon 0 makes theirs NaN on both sides)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        check_batch_norm(m, width, constant, epsilon, make_rng(seed))


def check_batch_norm(m, width, constant, epsilon, rng):
    layer, ref = BatchNorm(width, epsilon=epsilon), ReferenceBatchNorm(width, epsilon=epsilon)
    for arrays in (layer, ref):
        arrays.gamma[...] = np.linspace(0.5, 2.0, width)
        arrays.beta[...] = np.linspace(-1.0, 1.0, width)
    for _ in range(2):
        x = wide_values(rng, (m, width))
        x[:, :constant] = rng.normal(size=min(constant, width))
        grad = rng.normal(size=(m, width))
        x_before, grad_before = x.tobytes(), grad.tobytes()
        assert same(layer.forward(x, train=True), ref.forward(x, train=True))
        assert same(layer.running_mean, ref.running_mean)
        assert same(layer.running_var, ref.running_var)
        assert same(layer.backward(grad), ref.backward(grad))
        assert same(layer.dgamma, ref.dgamma) and same(layer.dbeta, ref.dbeta)
        assert x.tobytes() == x_before and grad.tobytes() == grad_before
    assert same(layer.forward(x, train=False), ref.forward(x, train=False))


LOGITS = [0.0, -0.0, 30.0, -30.0, 800.0, -800.0, math.inf, -math.inf]
KINDS = st.sampled_from(["bce", "softmax_ce", "hybrid"])


def head_problem(rng, m, width, kind, soft, special_share):
    """Logits with a ``special_share`` of LOGITS, whose probabilities hit the
    clamps, truth (fractional if ``soft``, one-hot in softmax columns) and
    the head's weather count."""
    logits = wide_values(rng, (m, width))
    special = rng.random((m, width)) < special_share
    logits[special] = rng.choice(LOGITS, size=int(special.sum()))
    truth = rng.random((m, width)) if soft else (rng.random((m, width)) < 0.3).astype(np.float64)
    soft_columns = (0 if kind == "bce" else width if kind == "softmax_ce"
                    else int(rng.integers(1, width)))
    if soft_columns:
        truth[:, :soft_columns] = np.eye(soft_columns)[rng.integers(soft_columns, size=m)]
    return logits, truth, soft_columns if kind == "hybrid" else 0


@settings(max_examples=100, deadline=None)
@given(m=BATCHES, width=st.integers(2, 9), kind=KINDS, soft=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_losses_match_the_reference(m, width, kind, soft, seed):
    """Loss and gradient of each head, against each head applied inside its
    own loss; the logits are not written."""
    logits, truth, wc = head_problem(make_rng(seed), m, width, kind, soft, 0.1)
    logits_before = logits.tobytes()
    with np.errstate(invalid="ignore"):  # softmax of an infinite logit is NaN on both sides
        loss, grad = loss_and_grad(kind, logits, truth, wc)
        want_loss, want_grad = reference_loss_and_grad(kind, logits, truth, wc)
    assert same(loss, want_loss) and same(grad, want_grad)
    assert logits.tobytes() == logits_before


@settings(max_examples=100, deadline=None)
@given(m=BATCHES, width=st.integers(2, 9), kind=KINDS, soft=st.booleans(),
       special_share=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_head_loss_of_predict_head_is_the_training_loss(m, width, kind, soft, special_share, seed):
    """``head_loss`` of ``predict_head``'s probabilities, as validation
    computes it, is the loss a training batch computes, and leaves the
    probabilities as they were."""
    logits, truth, wc = head_problem(make_rng(seed), m, width, kind, soft, special_share)
    with np.errstate(invalid="ignore"):
        probs = predict_head(kind, logits, wc)
        probs_before = probs.tobytes()
        loss = head_loss(kind, probs, truth, wc)
        want, _ = loss_and_grad(kind, logits, truth, wc)
        reference, _ = reference_loss_and_grad(kind, logits, truth, wc)
    assert same(loss, want) and same(loss, reference)
    assert probs.tobytes() == probs_before


def reference_layers(network: Network) -> list:
    """Copies of ``network``'s layers in the reference forms; the activation
    and dropout layers have no old form and are shared."""
    copies = []
    for layer in network.layers:
        if isinstance(layer, Dense):
            copies.append(ReferenceDense(layer.W, layer.b, layer.activation))
        elif isinstance(layer, BatchNorm):
            ref = ReferenceBatchNorm(layer.gamma.size, layer.epsilon, layer.momentum)
            for name in BatchNorm.ARRAYS:
                getattr(ref, name)[...] = getattr(layer, name)
            copies.append(ref)
        else:
            copies.append(layer)
    return copies


def reference_step(layers, x, y, rng):
    """The old train-mode forward, bce and full backward through ``layers``;
    returns (loss, [d<array> for each trainable array in layer order])."""
    out = x
    for layer in layers:
        out = layer.forward(out, train=True, rng=rng)
    loss, grad = reference_bce(out, y)
    for layer in reversed(layers):
        grad = layer.backward(grad)
    grads = []
    for layer in layers:
        names = (("dW", "db") if isinstance(layer, ReferenceDense)
                 else ("dgamma", "dbeta") if isinstance(layer, ReferenceBatchNorm) else ())
        grads += [getattr(layer, name) for name in names]
    return loss, grads


def reference_params(layers) -> list:
    return [a for layer in layers for a in (
        (layer.W, layer.b) if isinstance(layer, ReferenceDense)
        else (layer.gamma, layer.beta) if isinstance(layer, ReferenceBatchNorm) else ())]


@settings(max_examples=25, deadline=None)
@given(m=BATCHES, hidden=st.sampled_from([(5,), (8, 3)]), dropout=st.sampled_from([0.0, 0.25]),
       amsgrad=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_training_steps_match_the_reference(m, hidden, dropout, amsgrad, seed):
    """Six steps of a batch-normalized network, one of whose hidden units is
    constant (a zero-variance batch-norm column): loss, gradient, parameters
    and running statistics after every step."""
    rng = make_rng(seed)
    spec = NetworkSpec(in_dim=4, out_dim=3, hidden=hidden, batch_norm=True, dropout=dropout)
    net = Network.init(spec, seed=seed)
    net.layers[0].W[:, 0] = 0.0  # unit 0 of the first layer is its bias on every row
    ref = reference_layers(net)
    opt = Adam(net.theta, alpha=0.05, amsgrad=amsgrad)
    ref_opt = ReferenceAdam(reference_params(ref), alpha=0.05, amsgrad=amsgrad)
    draws, ref_draws = make_rng(seed + 1), make_rng(seed + 1)
    for step in range(6):
        x = rng.normal(size=(m, 4))
        y = (rng.random((m, 3)) < 0.4).astype(np.float64)
        loss, grad = net.loss_and_gradients(x, y, rng=draws)
        want_loss, want_grads = reference_step(ref, x, y, ref_draws)
        assert same(loss, want_loss), f"step {step + 1}"
        assert same(grad, np.concatenate([g.ravel() for g in want_grads])), f"step {step + 1}"
        opt.step(net.theta, grad)
        ref_opt.step(reference_params(ref), want_grads)
        want_state = [getattr(layer, name).ravel() for layer in ref
                      for name in (("W", "b") if isinstance(layer, ReferenceDense) else ())
                      + (("gamma", "beta") if isinstance(layer, ReferenceBatchNorm) else ())]
        want_stats = [getattr(layer, name) for layer in ref if isinstance(layer, ReferenceBatchNorm)
                      for name in ("running_mean", "running_var")]
        assert same(net.state, np.concatenate(want_state + want_stats)), f"step {step + 1}"


class WatchedDense(Dense):
    """A Dense that counts reads of ``W``: forward reads it once, and so does
    the input gradient, ``dz @ W.T``; dW and db do not read it."""

    reads = 0

    @property
    def W(self):
        self.reads += 1
        return self.__dict__["W"]

    @W.setter
    def W(self, value):
        self.__dict__["W"] = value


def test_first_layer_input_gradient_is_never_computed():
    spec = NetworkSpec(in_dim=6, out_dim=3, hidden=(5, 4), batch_norm=True)
    net = Network.init(spec, seed=3)
    dense = [layer for layer in net.layers if isinstance(layer, Dense)]
    assert net.layers[0] is dense[0] and len(dense) == 3
    for layer in dense:
        layer.__class__ = WatchedDense
    rng = make_rng(3)
    x, y = rng.normal(size=(10, 6)), (rng.random((10, 3)) < 0.5).astype(np.float64)
    logits = net.forward(x, train=True)
    _, dlogits = loss_and_grad("bce", logits, y)
    for layer in dense:
        layer.reads = 0
    assert net.backward(dlogits) is None
    assert [layer.reads for layer in dense] == [0, 1, 1]
    assert np.isfinite(net.grad).all() and net.grad[:30].any()  # the first layer's dW
    dense[0].reads = 0
    assert dense[0].backward(np.ones((10, 5))).shape == (10, 6)
    assert dense[0].reads == 1
