import io
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import bits, dense_to_sparse, fd_grad, rel_err
from mgk.errors import ContractError, FormatError, ShapeError
from mgk.graph import build_knn_rbf_graph, renormalized_propagation
from mgk.linalg import SparseSymMatrix
from mgk.model import build, loss_and_grads
from mgk import model as mgk_model, nn
from test_model import TOY, graph_batch, patch_tensor, toy_cfg


def test_layer_params_validation():
    with pytest.raises(ContractError):
        nn.LayerParams(kind="nope")
    with pytest.raises(ContractError):
        nn.LayerParams(kind="fc", weights=np.array([[np.nan]]),
                       bias=np.zeros(1))
    # 32-bit inputs are coerced up, never kept
    p = nn.LayerParams(kind="fc", weights=np.ones((2, 2), dtype=np.float32),
                       bias=np.zeros(2, dtype=np.float32))
    assert p.weights.dtype == np.float64
    assert p.bias.dtype == np.float64


def test_graph_conv_identity_case():
    p = nn.make_graph_conv(np.random.default_rng(0), 2, 2)
    p.weights[:] = np.eye(2)
    p.bias[:] = 0.0
    prop = SparseSymMatrix.identity(1)
    h = np.array([[3.0, -1.0]])
    out, _ = nn.graph_conv_forward(h, prop, p)
    assert np.array_equal(out, h)


def test_graph_conv_two_node_average():
    p = nn.make_graph_conv(np.random.default_rng(0), 2, 2)
    p.weights[:] = np.eye(2)
    p.bias[:] = 0.0
    prop = dense_to_sparse(np.full((2, 2), 0.5))
    out, _ = nn.graph_conv_forward(np.eye(2), prop, p)
    assert np.allclose(out, 0.5)


def test_graph_conv_with_identity_prop_is_fc():
    rng = np.random.default_rng(1)
    p = nn.make_graph_conv(rng, 3, 4)
    h = rng.normal(size=(5, 3))
    gc_out, _ = nn.graph_conv_forward(h, SparseSymMatrix.identity(5), p)
    fc_p = nn.LayerParams(kind="fc", weights=p.weights, bias=p.bias)
    fc_out, _ = nn.fully_connected_forward(h, fc_p)
    assert np.array_equal(gc_out, fc_out)
    # on a KNN operator it is fc on the propagated features, bit for bit,
    # and its input gradient is prop @ fc's
    feats = rng.normal(size=(12, 3))
    prop = renormalized_propagation(build_knn_rbf_graph(feats, 4,
                                                        1.0).adjacency)
    h = rng.normal(size=(12, 3))
    dout = rng.normal(size=(12, 4))
    gc_out, gc_tape = nn.graph_conv_forward(h, prop, p)
    fc_out, fc_tape = nn.fully_connected_forward(prop @ h, fc_p)
    assert np.array_equal(bits(gc_out), bits(fc_out))
    dh, gc_grads = nn.graph_conv_backward(dout, gc_tape)
    dx, fc_grads = nn.fully_connected_backward(dout, fc_tape)
    assert np.array_equal(bits(dh), bits(prop @ dx))
    for name in ("weights", "bias"):
        assert np.array_equal(bits(gc_grads[name]), bits(fc_grads[name]))


def test_graph_conv_train_tape_keeps_no_reference_to_its_input():
    # backward reads prop @ h, never h, so the tape lets h go
    rng = np.random.default_rng(3)
    p = nn.make_graph_conv(rng, 3, 4)
    feats = rng.normal(size=(8, 3))
    prop = renormalized_propagation(build_knn_rbf_graph(feats, 3,
                                                        1.0).adjacency)
    h = rng.normal(size=(8, 3))
    ref = weakref.ref(h)
    _, tape = nn.graph_conv_forward(h, prop, p)
    del h
    assert ref() is None
    dh, _ = nn.graph_conv_backward(np.ones((8, 4)), tape)
    assert dh.shape == (8, 3)


def test_conv2d_1x1_is_elementwise():
    rng = np.random.default_rng(2)
    p = nn.make_conv2d(rng, 1, 1, 1, 1)
    p.weights[:] = 2.5
    p.bias[:] = 0.25
    x = rng.normal(size=(2, 3, 3, 1))
    out, _ = nn.conv2d_forward(x, p)
    assert np.allclose(out, 2.5 * x + 0.25, atol=1e-12)


@given(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
       st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_conv2d_1x1_forward_is_bitwise_the_padded_im2col_product(
        b, h, w, c_in, c_out, seed):
    # a 1x1 kernel takes the input as its columns, without np.pad or
    # im2col; the product and the backward see the same values
    rng = np.random.default_rng(seed)
    p = nn.make_conv2d(rng, 1, 1, c_in, c_out)
    p.bias[:] = rng.normal(size=c_out)
    x = rng.normal(size=(b, h, w, c_in))
    x[rng.random(x.shape) < 0.1] = -0.0
    cols = nn._im2col(np.pad(x, ((0, 0), (0, 0), (0, 0), (0, 0))), 1, 1)
    want = (cols.reshape(-1, c_in) @ p.weights.reshape(c_in, c_out)
            + p.bias).reshape(b, h, w, c_out)
    got, tape = nn.conv2d_forward(x, p)
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(tape.cache[0]), bits(cols))


def test_conv2d_3x3_ones_kernel_zero_padding():
    p = nn.make_conv2d(np.random.default_rng(0), 3, 3, 1, 1)
    p.weights[:] = 1.0
    p.bias[:] = 0.0
    x = np.ones((1, 3, 3, 1))
    out, _ = nn.conv2d_forward(x, p)
    assert out[0, 1, 1, 0] == 9.0
    assert out[0, 0, 0, 0] == 4.0
    assert out[0, 0, 1, 0] == 6.0


def ref_im2col(xp, kh, kw, h, w):
    """The (i, j) slice-copy loop that the windowed _im2col replaced, kept
    as the reference for its bytes."""
    cols = np.empty(xp.shape[:1] + (h, w, kh * kw * xp.shape[3]))
    c = xp.shape[3]
    for i in range(kh):
        for j in range(kw):
            cols[..., (i * kw + j) * c:(i * kw + j + 1) * c] = \
                xp[:, i:i + h, j:j + w, :]
    return cols


@given(st.integers(1, 7), st.integers(1, 7), st.sampled_from([1, 3]),
       st.sampled_from([1, 3]), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_im2col_matches_slice_loop_bitwise(h, w, kh, kw, b, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, h, w, c))
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    want = ref_im2col(xp, kh, kw, h, w).view(np.uint64)
    assert np.array_equal(nn._im2col(xp, kh, kw).view(np.uint64), want)
    p = nn.make_conv2d(rng, kh, kw, c, 2)
    _, tape = nn.conv2d_forward(x, p)
    assert np.array_equal(tape.cache[0].view(np.uint64), want)


def test_conv2d_rejects_even_kernel():
    p = nn.LayerParams(kind="conv2d", weights=np.ones((2, 2, 1, 1)),
                       bias=np.zeros(1))
    with pytest.raises(ContractError):
        nn.conv2d_forward(np.ones((1, 3, 3, 1)), p)


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 3]),
       st.sampled_from([1, 3]), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_conv2d_param_grads_equal_backward_bitwise(h, w, kh, kw, b, c_in,
                                                   c_out, seed, strided):
    rng = np.random.default_rng(seed)
    p = nn.make_conv2d(rng, kh, kw, c_in, c_out)
    p.bias[:] = rng.normal(size=c_out)
    _, tape = nn.conv2d_forward(rng.normal(size=(b, h, w, c_in)), p)
    dout = rng.normal(size=(b, h + 1, w, c_out))
    # a strided view, as the pool's backward hands block 1 its gradient
    dout = dout[:, :h] if strided else np.ascontiguousarray(dout[:, :h])
    got = nn.conv2d_param_grads(dout, tape)
    _, want = nn.conv2d_backward(dout, tape)
    assert sorted(got) == ["bias", "weights"]
    for f in ("weights", "bias"):
        assert got[f].shape == want[f].shape
        assert np.array_equal(bits(got[f]), bits(want[f])), f


def test_maxpool_table_shapes():
    rng = np.random.default_rng(3)
    for h_in, h_out in ((7, 4), (4, 2), (2, 1), (1, 1)):
        x = rng.normal(size=(2, h_in, h_in, 3))
        out, _ = nn.maxpool2x2_forward(x)
        assert out.shape == (2, h_out, h_out, 3)


def test_maxpool_matches_brute_force():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 4, 4, 2))
    out, _ = nn.maxpool2x2_forward(x)
    for i in range(2):
        for j in range(2):
            for c in range(2):
                window = x[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                assert out[0, i, j, c] == window.max()


def test_maxpool_tie_routes_to_first_element():
    x = np.zeros((1, 2, 2, 1))
    out, tape = nn.maxpool2x2_forward(x)
    assert out.shape == (1, 1, 1, 1)
    dx = nn.maxpool2x2_backward(np.ones_like(out), tape)
    assert dx[0, 0, 0, 0] == 1.0
    assert dx.sum() == 1.0


def test_maxpool_idempotent_on_1x1():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 2, 3))
    once, _ = nn.maxpool2x2_forward(x)
    twice, _ = nn.maxpool2x2_forward(once)
    assert np.array_equal(once, twice)


def ref_maxpool2x2_forward(x):
    """2x2 pooling as it first ran: a padded, transposed (b, h2, w2, 4, c)
    copy of the windows, argmax and take_along_axis; the bitwise reference
    for the layer's output and its gradient routing."""
    b, h, w, c = x.shape
    h2, w2 = -(-h // 2), -(-w // 2)
    xp = np.full((b, h2 * 2, w2 * 2, c), -np.inf)
    xp[:, :h, :w, :] = x
    win = xp.reshape(b, h2, 2, w2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    win = win.reshape(b, h2, w2, 4, c)
    arg = win.argmax(axis=3)
    out = np.take_along_axis(win, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, nn.TapeEntry("maxpool", (arg, x.shape))


def _nans(rng, n):
    """Quiet NaNs of either sign with random payloads, so that the bits
    tell which one a window kept."""
    payload = rng.integers(1, 2**51, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    return (np.uint64(0x7FF8000000000000) | payload | sign).view(np.float64)


@given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "ties", "zeros"]), st.integers(0, 4),
       st.booleans())
@example(2, 7, 7, 3, 0, "ties", 0, False)
@example(1, 2, 2, 1, 1, "zeros", 3, False)
@example(1, 1, 1, 1, 2, "normal", 1, False)
def test_maxpool_matches_reference_bitwise(b, h, w, c, seed, values, n_nan,
                                           strided):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, h, w + 1, c))
    if values == "ties":
        x = np.round(x)  # many equal maxima, and -0.0 beside 0.0
    elif values == "zeros":
        x = np.where(x < 0, -0.0, 0.0)
    x[rng.random(x.shape) < 0.1] = -np.inf
    x.flat[rng.integers(0, x.size, size=n_nan)] = _nans(rng, n_nan)
    x = x[:, :, :w] if strided else np.ascontiguousarray(x[:, :, :w])
    x_before = x.copy()
    want, ref_tape = ref_maxpool2x2_forward(x)
    got, tape = nn.maxpool2x2_forward(x)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))
    # eval mode selects by the same passes and keeps no argmax index
    got_eval, no_tape = nn.maxpool2x2_forward(x, "eval")
    assert no_tape is None
    assert np.array_equal(bits(got_eval), bits(want))
    (arg, xshape), (ref_arg, ref_xshape) = tape.cache, ref_tape.cache
    assert arg.dtype == ref_arg.dtype and xshape == ref_xshape
    assert np.array_equal(arg, ref_arg)
    dout = rng.normal(size=got.shape)
    assert np.array_equal(bits(nn.maxpool2x2_backward(dout, tape)),
                          bits(nn.maxpool2x2_backward(dout, ref_tape)))
    assert np.array_equal(bits(x), bits(x_before))


def test_relu_idempotent():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5))
    once, _ = nn.relu_forward(x)
    twice, _ = nn.relu_forward(once)
    assert np.array_equal(once, twice)


def test_relu_eval_clamps_in_place_with_train_modes_bits():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5))
    x[0, :3] = (-0.0, np.nan, -np.inf)
    want, _ = nn.relu_forward(x.copy())
    got, tape = nn.relu_forward(x, "eval")
    assert got is x and tape is None
    assert np.array_equal(bits(got), bits(want))


def test_eval_layers_refuse_an_unknown_mode():
    x = np.ones((2, 2, 2, 1))
    for layer in (nn.relu_forward, nn.maxpool2x2_forward):
        with pytest.raises(ContractError, match="mode"):
            layer(x, "test")


def test_batch_norm_train_normalizes():
    rng = np.random.default_rng(7)
    p = nn.make_batch_norm(3)
    x = rng.normal(loc=5.0, scale=2.0, size=(64, 3))
    out, _ = nn.batch_norm_forward(x, p, mode="train")
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-6
    assert np.max(np.abs(out.var(axis=0) - 1.0)) <= 1e-4


def test_batch_norm_eval_identity_stats():
    p = nn.make_batch_norm(3)
    x = np.random.default_rng(8).normal(size=(4, 3))
    out, _ = nn.batch_norm_forward(x, p, mode="eval")
    # identity up to the 1e-5 variance epsilon
    assert np.max(np.abs(out - x)) <= 1e-4


@given(st.sampled_from([(1, 3), (7, 130), (1, 1, 1, 4), (3, 4, 4, 9)]),
       st.integers(0, 2**32 - 1))
def test_batch_norm_eval_matches_reference_bitwise(shape, seed):
    rng = np.random.default_rng(seed)
    width = shape[-1]
    p = nn.make_batch_norm(width)
    p.bn_gamma = rng.normal(size=width)
    p.bn_beta = rng.normal(size=width)
    p.bn_running_mean = rng.normal(size=width)
    p.bn_running_var = rng.uniform(0.0, 3.0, size=width)
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.1] = -0.0
    x_before = x.copy()
    # eval batch norm as it first ran, one temporary per term
    inv = 1.0 / np.sqrt(p.bn_running_var + nn.BN_EPS)
    want = p.bn_gamma * (x - p.bn_running_mean) * inv + p.bn_beta
    got, tape = nn.batch_norm_forward(x, p, mode="eval")
    assert tape is None
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(x), bits(x_before))


def test_batch_norm_running_stats_momentum():
    rng = np.random.default_rng(9)
    p = nn.make_batch_norm(2)
    x = rng.normal(size=(16, 2))
    nn.batch_norm_forward(x, p, mode="train")
    want_mean = 0.1 * x.mean(axis=0)
    want_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
    assert np.allclose(p.bn_running_mean, want_mean, atol=1e-12)
    assert np.allclose(p.bn_running_var, want_var, atol=1e-12)


def test_batch_norm_eval_side_effect_free():
    rng = np.random.default_rng(10)
    p = nn.make_batch_norm(2)
    before = (p.bn_running_mean.copy(), p.bn_running_var.copy())
    nn.batch_norm_forward(rng.normal(size=(4, 2)), p, mode="eval")
    assert np.array_equal(p.bn_running_mean, before[0])
    assert np.array_equal(p.bn_running_var, before[1])


def test_batch_norm_rejects_singleton_train_batch():
    p = nn.make_batch_norm(2)
    with pytest.raises(ContractError):
        nn.batch_norm_forward(np.ones((1, 2)), p, mode="train")


def ref_batch_norm_train(x, p, momentum):
    """Train-mode batch norm as it first ran, with np.var and a second
    subtraction of the mean; the bitwise reference for the layer. Returns
    the output, xhat and the new running mean and variance."""
    axes = nn._bn_axes(x)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + nn.BN_EPS)
    xhat = (x - mean) * inv
    out = p.bn_gamma * xhat + p.bn_beta
    return (out, xhat,
            momentum * p.bn_running_mean + (1.0 - momentum) * mean,
            momentum * p.bn_running_var + (1.0 - momentum) * var)


@given(st.one_of(st.tuples(st.integers(2, 300), st.integers(1, 130)),
                 st.tuples(st.integers(2, 8), st.integers(1, 7),
                           st.integers(1, 7), st.integers(1, 40))),
       st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]))
@example((2, 3), 0, True, 0.9)
@example((2, 1, 1, 4), 1, False, 0.9)
@example((4800, 64), 2, False, 0.9)
@example((32, 7, 7, 32), 3, True, 0.9)
def test_batch_norm_train_forward_matches_reference_bitwise(shape, seed,
                                                            constant,
                                                            momentum):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-3, 3), scale=10.0 ** rng.uniform(-3, 1),
                   size=shape)
    if constant:
        x[..., ::2] = rng.normal()
    width = shape[-1]
    p = nn.make_batch_norm(width)
    p.bn_gamma = rng.normal(size=width)
    p.bn_beta = rng.normal(size=width)
    p.bn_running_mean = rng.normal(size=width)
    p.bn_running_var = rng.uniform(0.1, 2.0, size=width)
    x_before = x.copy()
    want = ref_batch_norm_train(x, p, momentum)
    out, tape = nn.batch_norm_forward(x, p, "train", momentum)
    got = (out, tape.cache[0], p.bn_running_mean, p.bn_running_var)
    for name, g, w in zip(("out", "xhat", "running mean", "running var"),
                          got, want):
        assert g.shape == w.shape
        assert np.array_equal(bits(g), bits(w)), name
    assert np.array_equal(bits(x), bits(x_before))


def ref_batch_norm_backward(dout, tape):
    """Batch-norm backward as it first ran, one temporary per operation;
    the bitwise reference for the layer's gradients."""
    xhat, inv, gamma, axes, m = tape.cache
    dxhat = dout * gamma
    dx = inv / m * (
        m * dxhat
        - dxhat.sum(axis=axes, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
    )
    return dx, {"bn_gamma": (dout * xhat).sum(axis=axes),
                "bn_beta": dout.sum(axis=axes)}


@given(st.one_of(st.tuples(st.integers(2, 300), st.integers(1, 130)),
                 st.tuples(st.integers(2, 8), st.integers(1, 7),
                           st.integers(1, 7), st.integers(1, 40))),
       st.integers(0, 2**32 - 1), st.booleans())
@example((2, 3), 0, True)
@example((32, 128), 1, False)
@example((4800, 128), 2, False)
@example((32, 7, 7, 32), 3, True)
def test_batch_norm_backward_matches_reference_bitwise(shape, seed, constant):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-3, 3), scale=10.0 ** rng.uniform(-3, 1),
                   size=shape)
    if constant:
        x[..., ::2] = rng.normal()
    p = nn.make_batch_norm(shape[-1])
    p.bn_gamma = rng.normal(size=shape[-1])
    _, tape = nn.batch_norm_forward(x, p, "train")
    dout = rng.normal(size=shape)
    cache_before = [bits(a).copy() for a in tape.cache[:3]]
    dout_before = dout.copy()
    want_dx, want = ref_batch_norm_backward(dout, tape)
    dx, got = nn.batch_norm_backward(dout, tape)
    assert dx.shape == want_dx.shape
    assert np.array_equal(bits(dx), bits(want_dx))
    for f in ("bn_gamma", "bn_beta"):
        assert np.array_equal(bits(got[f]), bits(want[f])), f
    got = nn.batch_norm_param_grads(dout, tape)
    for f in ("bn_gamma", "bn_beta"):
        assert np.array_equal(bits(got[f]), bits(want[f])), f
    assert np.array_equal(bits(dout), bits(dout_before))
    for a, before in zip(tape.cache[:3], cache_before):
        assert np.array_equal(bits(a), before)


@pytest.mark.parametrize("arch", ["gcn", "minigcn", "funet-a", "funet-m",
                                  "funet-c"])
def test_training_step_skips_the_input_gradient_of_gcn_bn_in(arch,
                                                             monkeypatch):
    rng = np.random.default_rng(14)
    mdl = build(toy_cfg(arch), seed=2)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    patches = None
    if mdl.cfg.uses_patches:
        patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    bn_in = mdl.layers["gcn.bn_in"]
    forward_, backward_ = nn.batch_norm_forward, nn.batch_norm_backward
    param_grads_ = nn.batch_norm_param_grads
    bn_in_tapes, backward_tapes, param_calls = [], [], []

    def spy_forward(x, p, *args):
        out, tape = forward_(x, p, *args)
        if p is bn_in:
            bn_in_tapes.append(tape)
        return out, tape

    def spy_backward(dout, tape):
        backward_tapes.append(tape)
        return backward_(dout, tape)

    def spy_param_grads(dout, tape):
        grads = param_grads_(dout, tape)
        param_calls.append((np.array(dout), tape, grads))
        return grads

    with monkeypatch.context() as mp:
        mp.setattr(nn, "batch_norm_forward", spy_forward)
        mp.setattr(nn, "batch_norm_backward", spy_backward)
        mp.setattr(nn, "batch_norm_param_grads", spy_param_grads)
        _, grads, _ = loss_and_grads(mdl, labels, feats, prop, patches,
                                     l2=0.001)

    (tape,) = bn_in_tapes
    assert len(backward_tapes) >= 2  # gcn.bn_out and head.bn still run it
    assert all(t is not tape for t in backward_tapes)
    (dout, _, got), = [c for c in param_calls if c[1] is tape]
    _, want = backward_(dout, tape)
    assert grads["gcn.bn_in"] is got
    for f in ("bn_gamma", "bn_beta"):
        assert np.array_equal(bits(got[f]), bits(want[f]))


@pytest.mark.parametrize("arch", ["cnn2d", "funet-a", "funet-m", "funet-c"])
def test_training_step_skips_the_input_gradient_of_cnn_block1(arch,
                                                              monkeypatch):
    rng = np.random.default_rng(15)
    mdl = build(toy_cfg(arch), seed=3)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    blocks = {id(mdl.layers[f"cnn.block{i}.conv"]): i for i in (1, 2, 3)}
    forward_, backward_ = nn.conv2d_forward, nn.conv2d_backward
    param_grads_ = nn.conv2d_param_grads
    conv_tapes, backward_tapes, param_calls = {}, [], []

    def spy_forward(x, p):
        out, tape = forward_(x, p)
        conv_tapes[blocks[id(p)]] = tape
        return out, tape

    def spy_backward(dout, tape):
        backward_tapes.append(tape)
        return backward_(dout, tape)

    def spy_param_grads(dout, tape):
        grads = param_grads_(dout, tape)
        param_calls.append((np.array(dout), tape, grads,
                            {f: g.copy() for f, g in grads.items()}))
        return grads

    with monkeypatch.context() as mp:
        mp.setattr(nn, "conv2d_forward", spy_forward)
        mp.setattr(nn, "conv2d_backward", spy_backward)
        mp.setattr(nn, "conv2d_param_grads", spy_param_grads)
        _, grads, _ = loss_and_grads(mdl, labels, feats, prop, patches,
                                     l2=0.001)

    assert sorted(conv_tapes) == [1, 2, 3]
    # blocks 3 and 2 still take the full backward, block 1 never does
    assert [id(t) for t in backward_tapes] == [id(conv_tapes[3]),
                                               id(conv_tapes[2])]
    (dout, _, got, got_before), = [c for c in param_calls
                                   if c[1] is conv_tapes[1]]
    _, want = backward_(dout, conv_tapes[1])
    assert grads["cnn.block1.conv"] is got
    for f in ("weights", "bias"):
        assert np.array_equal(bits(got_before[f]), bits(want[f]))


def _arrays(obj):
    """Every ndarray inside a tape, a tuple or a dict of them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, nn.TapeEntry):
        yield from _arrays(obj.cache)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


@pytest.mark.parametrize("arch", ["gcn", "minigcn", "cnn2d", "funet-a",
                                  "funet-m", "funet-c"])
def test_l2_is_added_in_place_to_gradients_that_alias_nothing(arch,
                                                              monkeypatch):
    rng = np.random.default_rng(16)
    mdl = build(toy_cfg(arch), seed=4)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    patches = None
    if mdl.cfg.uses_patches:
        patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    forward_ = mgk_model.forward
    tapes = []

    def spy_forward(*args, **kwargs):
        logits, t = forward_(*args, **kwargs)
        tapes.append(t)
        return logits, t

    plain = mdl.copy()
    with monkeypatch.context() as mp:
        mp.setattr(mgk_model, "forward", spy_forward)
        _, grads0, _ = loss_and_grads(plain, labels, feats, prop, patches,
                                      l2=0.0)
    # the gradients share memory with no parameter, tape or other gradient
    grad_arrays = list(_arrays(grads0))
    others = list(_arrays(tapes)) + [
        getattr(layer, f) for _, layer in plain.named_params()
        for f in nn._ARRAY_FIELDS[layer.kind]]
    for i, g in enumerate(grad_arrays):
        assert not any(np.shares_memory(g, o) for o in others)
        assert not any(np.shares_memory(g, o) for o in grad_arrays[i + 1:])

    l2 = 0.001
    _, grads, _ = loss_and_grads(mdl.copy(), labels, feats, prop,
                                 patches, l2=l2)
    for name, layer in mdl.named_params():
        for f in grads[name]:
            want = grads0[name][f]
            if f == "weights":
                want = want + 2.0 * l2 * layer.weights
            assert np.array_equal(bits(grads[name][f]), bits(want)), name


def test_softmax_uniform_logits_loss():
    for c in (2, 5, 9):
        logits = np.zeros((3, c))
        labels = np.zeros((3, c))
        labels[:, 0] = 1.0
        loss, probs, _ = nn.softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(c), abs=1e-12)
        assert np.allclose(probs, 1.0 / c)


def test_softmax_large_margin_loss_vanishes():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    labels = np.zeros((1, 4))
    labels[0, 2] = 1.0
    loss, _, _ = nn.softmax_cross_entropy(logits, labels)
    assert loss <= 1e-6


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(6, 5)) * 10
    labels = np.eye(5)[rng.integers(0, 5, size=6)]
    _, probs, _ = nn.softmax_cross_entropy(logits, labels)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all(probs >= 0) and np.all(probs <= 1)


def test_softmax_rejects_non_one_hot():
    logits = np.zeros((2, 3))
    bad = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ContractError):
        nn.softmax_cross_entropy(logits, bad)


def test_backward_requires_matching_tape():
    rng = np.random.default_rng(12)
    p = nn.make_fc(rng, 3, 2)
    _, tape = nn.fully_connected_forward(rng.normal(size=(4, 3)), p)
    with pytest.raises(ContractError):
        nn.graph_conv_backward(np.ones((4, 2)), tape)


# ----------------------------------------------------- gradient checks

def _project_loss(out, proj):
    return float(np.sum(out * proj))


def test_graph_conv_gradcheck():
    rng = np.random.default_rng(13)
    prop = dense_to_sparse([[0.6, 0.4], [0.4, 0.5]])
    p = nn.make_graph_conv(rng, 3, 2)
    h = rng.normal(size=(2, 3))
    proj = rng.normal(size=(2, 2))
    out, tape = nn.graph_conv_forward(h, prop, p)
    dh, grads = nn.graph_conv_backward(proj, tape)

    def loss():
        return _project_loss(nn.graph_conv_forward(h, prop, p)[0], proj)

    assert rel_err(dh, fd_grad(loss, h)) <= 1e-5
    assert rel_err(grads["weights"], fd_grad(loss, p.weights)) <= 1e-5
    assert rel_err(grads["bias"], fd_grad(loss, p.bias)) <= 1e-5


def test_conv2d_gradcheck():
    rng = np.random.default_rng(14)
    for kernel in (1, 3):
        p = nn.make_conv2d(rng, kernel, kernel, 2, 3)
        x = rng.normal(size=(2, 4, 4, 2))
        proj = rng.normal(size=(2, 4, 4, 3))
        _, tape = nn.conv2d_forward(x, p)
        dx, grads = nn.conv2d_backward(proj, tape)

        def loss():
            return _project_loss(nn.conv2d_forward(x, p)[0], proj)

        assert rel_err(dx, fd_grad(loss, x)) <= 1e-5
        assert rel_err(grads["weights"], fd_grad(loss, p.weights)) <= 1e-5
        assert rel_err(grads["bias"], fd_grad(loss, p.bias)) <= 1e-5


def test_batch_norm_gradcheck():
    rng = np.random.default_rng(15)
    p = nn.make_batch_norm(3)
    p.bn_gamma[:] = rng.normal(size=3)
    p.bn_beta[:] = rng.normal(size=3)
    x = rng.normal(size=(6, 3))
    proj = rng.normal(size=(6, 3))
    _, tape = nn.batch_norm_forward(x, p.copy(), mode="train")
    dx, grads = nn.batch_norm_backward(proj, tape)

    def loss():
        # copy params so running-stat updates never leak between evals
        return _project_loss(
            nn.batch_norm_forward(x, p.copy(), mode="train")[0], proj)

    assert rel_err(dx, fd_grad(loss, x)) <= 1e-4
    assert rel_err(grads["bn_gamma"], fd_grad(loss, p.bn_gamma)) <= 1e-4
    assert rel_err(grads["bn_beta"], fd_grad(loss, p.bn_beta)) <= 1e-4


def test_softmax_gradcheck():
    rng = np.random.default_rng(16)
    logits = rng.normal(size=(4, 5))
    labels = np.eye(5)[rng.integers(0, 5, size=4)]
    loss_val, probs, tape = nn.softmax_cross_entropy(logits, labels)
    dlogits = nn.softmax_cross_entropy_backward(tape)
    assert np.allclose(dlogits, (probs - labels) / 4, atol=1e-15)

    def loss():
        return nn.softmax_cross_entropy(logits, labels)[0]

    assert rel_err(dlogits, fd_grad(loss, logits)) <= 1e-6


@given(st.integers(0, 2**32 - 1))
def test_relu_and_maxpool_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    x[np.abs(x) < 0.1] += 0.2  # keep clear of the kink
    proj = rng.normal(size=(3, 4))
    _, tape = nn.relu_forward(x)
    dx = nn.relu_backward(proj, tape)

    def loss():
        return _project_loss(nn.relu_forward(x)[0], proj)

    assert rel_err(dx, fd_grad(loss, x)) <= 1e-5

    xp = rng.normal(size=(1, 3, 3, 2))
    out, tape = nn.maxpool2x2_forward(xp)
    projp = rng.normal(size=out.shape)
    dxp = nn.maxpool2x2_backward(projp, tape)

    def loss_pool():
        return _project_loss(nn.maxpool2x2_forward(xp)[0], projp)

    # FD is only valid when window maxima are not near-ties
    gaps_ok = True
    pad = np.full((1, 4, 4, 2), -np.inf)
    pad[:, :3, :3, :] = xp
    for i in range(2):
        for j in range(2):
            win = pad[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, :].reshape(4, 2)
            for c in range(2):
                vals = np.sort(win[np.isfinite(win[:, c]), c])
                if vals.size > 1 and vals[-1] - vals[-2] < 1e-3:
                    gaps_ok = False
    if gaps_ok:
        assert rel_err(dxp, fd_grad(loss_pool, xp)) <= 1e-5


# ----------------------------------------------------- checkpoint format

def test_checkpoint_round_trip_bit_exact():
    rng = np.random.default_rng(17)
    layers = [
        nn.make_fc(rng, 3, 2),
        nn.make_batch_norm(4),
        nn.make_conv2d(rng, 3, 3, 2, 3),
    ]
    layers[1].bn_running_mean[:] = rng.normal(size=4)
    layers[1].bn_running_var[:] = rng.uniform(0.5, 2.0, size=4)
    buf = io.BytesIO()
    nn.save_params(buf, layers)
    payload = buf.getvalue()
    loaded = nn.load_params(io.BytesIO(payload))
    assert len(loaded) == 3
    for a, b in zip(layers, loaded):
        assert a.kind == b.kind
        for field in nn._ARRAY_FIELDS[a.kind]:
            assert np.array_equal(getattr(a, field), getattr(b, field))
    buf2 = io.BytesIO()
    nn.save_params(buf2, loaded)
    assert buf2.getvalue() == payload


def test_checkpoint_bad_magic_offset():
    with pytest.raises(FormatError) as err:
        nn.load_params(io.BytesIO(b"XXXXX" + b"\x00" * 8))
    assert err.value.offset == 0


def test_checkpoint_truncation_reports_offset():
    rng = np.random.default_rng(18)
    buf = io.BytesIO()
    nn.save_params(buf, [nn.make_fc(rng, 2, 2)])
    payload = buf.getvalue()[:-4]
    with pytest.raises(FormatError) as err:
        nn.load_params(io.BytesIO(payload))
    assert err.value.offset is not None
    assert "byte offset" in str(err.value)


def test_checkpoint_trailing_bytes_rejected():
    rng = np.random.default_rng(19)
    buf = io.BytesIO()
    nn.save_params(buf, [nn.make_fc(rng, 2, 2)])
    with pytest.raises(FormatError):
        nn.load_params(io.BytesIO(buf.getvalue() + b"\x00"))


def test_checkpoint_non_ascii_kind_reports_offset():
    buf = io.BytesIO()
    nn.save_params(buf, [nn.make_batch_norm(2)])
    payload = bytearray(buf.getvalue())
    tag_at = 5 + 4 + 1  # magic, layer count, kind length
    payload[tag_at] = 0xE9
    with pytest.raises(FormatError, match="not ASCII") as err:
        nn.load_params(io.BytesIO(bytes(payload)))
    assert err.value.offset == tag_at


def test_checkpoint_dims_past_int64_are_truncation_not_wraparound():
    # (2**32 - 1)**2 float64 items: the byte count overflows int64
    big = 2**32 - 1
    payload = (nn.CHECKPOINT_MAGIC + struct.pack("<I", 1)
               + struct.pack("<B", 2) + b"fc" + struct.pack("<B", 2)
               + struct.pack("<II", big, big))
    with pytest.raises(FormatError, match="fc.weights payload") as err:
        nn.load_params(io.BytesIO(payload))
    assert err.value.offset == len(payload)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(20)
    w = nn.glorot_uniform(rng, 40, 60, (40, 60))
    limit = math.sqrt(6.0 / 100.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > limit / 4  # actually spread out, not degenerate
