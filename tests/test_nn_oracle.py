"""Adam's one-array step and the maskless sigmoid in canopy.nn against the
list-loop step and the masked sigmoid in reference_nn: byte-identical
parameters, moments and probabilities, NaN and infinities included."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canopy.classical.gbm import sigmoid as gbm_sigmoid
from canopy.data import make_rng
from canopy.nn import Adam, OptimizerDiverged, sigmoid

from reference_nn import ReferenceAdam, reference_sigmoid

STEPS = 300


@settings(max_examples=60, deadline=None)
@given(
    amsgrad=st.booleans(),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    alpha=st.sampled_from([1e-3, 1e-2, 0.5]),
    epsilon=st.sampled_from([1e-8, 1e-3]),
)
def test_adam_step_matches_the_list_loop(amsgrad, size, seed, zero_share, alpha, epsilon):
    """300 steps of gradients whose magnitudes run from 1e-8 to 1e3, with a
    drawn share of zero entries and every 50th gradient all zero."""
    rng = make_rng(seed)
    w = rng.normal(size=size)
    w_ref = w.copy()
    opt = Adam(w, alpha, epsilon, amsgrad)
    ref = ReferenceAdam([w_ref], alpha, epsilon, amsgrad)
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
