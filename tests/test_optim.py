from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bits
from mgk.errors import ContractError
from mgk import nn
from mgk.optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                       adam_step, schedule_lr)


def one_fc_model(rng, d=3, p=2):
    layer = nn.make_fc(rng, d, p)
    return [("fc", layer)]


def test_adam_zero_gradients_noop():
    rng = np.random.default_rng(0)
    params = one_fc_model(rng)
    before = params[0][1].weights.copy()
    grads = {"fc": {"weights": np.zeros_like(before),
                    "bias": np.zeros(2)}}
    state = AdamState()
    adam_step(params, grads, state, lr=0.01)
    assert np.array_equal(params[0][1].weights, before)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    rng = np.random.default_rng(1)
    params = one_fc_model(rng, d=1, p=1)
    params[0][1].weights[:] = 0.0
    grads = {"fc": {"weights": np.ones((1, 1)), "bias": np.zeros(1)}}
    adam_step(params, grads, AdamState(), lr=0.001)
    # bias-corrected first step is -lr * g / (|g| + eps)
    want = -0.001 * 1.0 / (1.0 + ADAM_EPS)
    assert params[0][1].weights[0, 0] == pytest.approx(want, abs=1e-12)


def test_adam_constant_gradient_step_sizes_non_increasing():
    rng = np.random.default_rng(2)
    params = one_fc_model(rng, d=1, p=1)
    state = AdamState()
    grads = {"fc": {"weights": np.full((1, 1), 2.0),
                    "bias": np.zeros(1)}}
    prev = params[0][1].weights.copy()
    deltas = []
    for _ in range(6):
        adam_step(params, grads, state, lr=0.001)
        deltas.append(abs(float(params[0][1].weights[0, 0] - prev[0, 0])))
        prev = params[0][1].weights.copy()
    for later, earlier in zip(deltas[1:], deltas[:-1]):
        assert later <= earlier + 1e-15


def test_adam_lr_zero_noop_but_state_advances():
    rng = np.random.default_rng(3)
    params = one_fc_model(rng)
    before = params[0][1].weights.copy()
    grads = {"fc": {"weights": np.ones_like(before), "bias": np.ones(2)}}
    state = AdamState()
    adam_step(params, grads, state, lr=0.0)
    assert np.array_equal(params[0][1].weights, before)
    assert state.step_count == 1


def test_adam_missing_grad_is_contract_error():
    rng = np.random.default_rng(4)
    params = one_fc_model(rng)
    with pytest.raises(ContractError):
        adam_step(params, {"fc": {"weights": np.zeros((3, 2))}},
                  AdamState(), lr=0.01)


def test_adam_updates_in_place():
    rng = np.random.default_rng(5)
    params = one_fc_model(rng)
    w_ref = params[0][1].weights
    grads = {"fc": {"weights": np.ones((3, 2)), "bias": np.ones(2)}}
    adam_step(params, grads, AdamState(), lr=0.01)
    assert params[0][1].weights is w_ref


def test_adam_batch_norm_trains_gamma_beta_only():
    p = nn.make_batch_norm(3)
    params = [("bn", p)]
    grads = {"bn": {"bn_gamma": np.ones(3), "bn_beta": np.ones(3)}}
    rm = p.bn_running_mean.copy()
    adam_step(params, grads, AdamState(), lr=0.1)
    assert not np.array_equal(p.bn_gamma, np.ones(3))
    assert np.array_equal(p.bn_running_mean, rm)


def test_adam_refuses_a_gradient_of_another_shape():
    rng = np.random.default_rng(6)
    params = one_fc_model(rng)
    before = params[0][1].weights.copy()
    grads = {"fc": {"weights": np.ones(1), "bias": np.ones(2)}}
    state = AdamState()
    with pytest.raises(ContractError, match=r"fc\.weights.*\(1,\).*\(3, 2\)"):
        adam_step(params, grads, state, lr=0.01)
    assert np.array_equal(params[0][1].weights, before)
    assert state.step_count == 0


def test_adam_refuses_a_state_built_for_another_layout():
    rng = np.random.default_rng(7)
    state = AdamState()
    params = one_fc_model(rng)
    adam_step(params, {"fc": {"weights": np.ones((3, 2)),
                              "bias": np.ones(2)}}, state, lr=0.01)
    others = [
        [("head", params[0][1])],                       # another name
        one_fc_model(rng, d=4),                         # another shape
        [("fc", nn.make_graph_conv(rng, 3, 2))] + [     # another list
            ("bn", nn.make_batch_norm(2))],
    ]
    for other in others:
        grads = {name: {f: np.ones_like(getattr(layer, f))
                        for f in nn.TRAINABLE_FIELDS[layer.kind]}
                 for name, layer in other}
        with pytest.raises(ContractError, match="layout"):
            adam_step(other, grads, state, lr=0.01)
    assert state.step_count == 1


@dataclass
class RefAdamState:
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def ref_adam_step(params, grads, state, lr):
    """Adam as it first ran, one (layer, field) array at a time; kept as the
    bitwise reference for the flat-buffer step."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, layer in params:
        for fieldname in nn.TRAINABLE_FIELDS[layer.kind]:
            g = np.asarray(grads[name][fieldname], dtype=np.float64)
            key = (name, fieldname)
            m = state.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                state.m[key] = m
                state.v[key] = np.zeros_like(g)
            v = state.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            arr = getattr(layer, fieldname)
            arr -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.sampled_from(["none", "some", "all"]), st.booleans())
@example(0, 300, "none", False)
@example(1, 1, "all", True)
def test_adam_matches_per_field_reference_bitwise(seed, steps, zeros,
                                                  lr_zero):
    rng = np.random.default_rng(seed)
    params = [("conv", nn.make_conv2d(rng, 3, 3, 2, 3)),
              ("bn", nn.make_batch_norm(3)),
              ("gconv", nn.make_graph_conv(rng, 4, 3)),
              ("fc", nn.make_fc(rng, 3, 2))]
    ref = [(name, layer.copy()) for name, layer in params]
    state, ref_state = AdamState(), RefAdamState()
    for step in range(steps):
        grads = {}
        for name, layer in params:
            grads[name] = {}
            for f in nn.TRAINABLE_FIELDS[layer.kind]:
                shape = getattr(layer, f).shape
                scale = 10.0 ** rng.uniform(-8, 3)
                g = rng.normal(scale=scale, size=shape)
                if zeros == "all" or (zeros == "some" and rng.random() < .3):
                    g = np.zeros(shape)
                grads[name][f] = g
        lr = 0.0 if lr_zero and step % 2 == 0 else rng.uniform(0.0, 0.1)
        adam_step(params, grads, state, lr)
        ref_adam_step(ref, grads, ref_state, lr)
    assert state.step_count == ref_state.step_count == steps
    for (name, layer), (_, want) in zip(params, ref):
        for f in nn._ARRAY_FIELDS[layer.kind]:
            assert np.array_equal(bits(getattr(layer, f)),
                                  bits(getattr(want, f))), f"{name}.{f}"
    keys = [(name, f) for name, layer in params
            for f in nn.TRAINABLE_FIELDS[layer.kind]]
    for flat, moments in ((state.m, ref_state.m), (state.v, ref_state.v)):
        want = np.concatenate([moments[key].ravel() for key in keys])
        assert np.array_equal(bits(flat), bits(want))


def test_schedule_refuses_bad_arguments():
    for base_lr, max_iter in [(-1.0, 100), (0.0, 100), (np.inf, 100),
                              (np.nan, 100), (0.001, 0)]:
        with pytest.raises(ContractError):
            schedule_lr(base_lr, 0, max_iter)


def test_schedule_default_policy_values():
    assert schedule_lr(0.001, 0, 200) == pytest.approx(0.001)
    assert schedule_lr(0.001, 100, 200) == pytest.approx(0.001 * np.sqrt(0.5))
    assert schedule_lr(0.001, 37, 200) == schedule_lr(0.001, 0, 200)
    assert schedule_lr(0.001, 200, 200) == 0.0


def test_schedule_epoch_out_of_range():
    with pytest.raises(ContractError):
        schedule_lr(0.001, 101, 100)
    with pytest.raises(ContractError):
        schedule_lr(0.001, -1, 100)


@given(st.integers(1, 8), st.integers(0, 400))
def test_schedule_non_increasing_piecewise_constant(blocks, start):
    max_iter = blocks * 50
    epochs = list(range(0, max_iter + 1))
    lrs = [schedule_lr(0.001, e, max_iter) for e in epochs]
    assert all(b <= a + 1e-18 for a, b in zip(lrs, lrs[1:]))
    for e, lr in zip(epochs, lrs):
        if e < max_iter:
            assert lr == lrs[(e // 50) * 50]
        assert 0.0 <= lr <= 0.001
