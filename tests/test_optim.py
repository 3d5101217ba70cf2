import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgk.errors import ContractError
from mgk import nn
from mgk.optim import ADAM_EPS, AdamState, adam_step, schedule_lr


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
