"""Neural layers with hand-written forward/backward passes.

Every forward returns ``(out, tape)`` where the tape holds only what the
matching backward reads; backward returns ``(dx, grads)`` with grads keyed
by the LayerParams field names. fc, graph conv and conv2d share one product
step, ``x @ W + b``, and its weight and bias gradients: graph conv applies
it to ``prop @ h``, conv2d to its im2col columns. For inference over
overlapping patches, ``conv2d_taps`` multiplies each image position by
every kernel tap once and ``conv2d_from_taps`` sums each patch's conv
output from those products. It walks the kernel's tap windows, clipped
to the map, as ``conv2d_backward`` does to add each tap's columns into
the input gradient. Batch norm, ReLU and max pooling take a ``mode``: in
eval mode they keep no tape, mask or argmax index, and batch norm and ReLU
work in place. ``conv2d_param_grads`` and ``batch_norm_param_grads``
return the same grads without ``dx``, for a model's first layers, whose
input gradient nothing reads. No autograd, no framework: the layer set is
small enough that explicit gradients stay auditable, and the whole stack
is checked against central finite differences in the tests.

All math runs in float64. Image tensors are laid out (batch, height, width,
channels); vertex features are (batch, features). Graph conv applies its
operator with ``@``: a ``SparseSymMatrix`` in training and inference, or a
dense array in ``mgk bench``'s N² reference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ContractError, FormatError, ShapeError

BN_EPS = 1e-5

# the layer kinds and the arrays each serializes, in order; its first two
# arrays are the trainable ones
_ARRAY_FIELDS = {
    "graph_conv": ("weights", "bias"),
    "conv2d": ("weights", "bias"),
    "fc": ("weights", "bias"),
    "batch_norm": ("bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var"),
}
TRAINABLE_FIELDS = {kind: names[:2] for kind, names in _ARRAY_FIELDS.items()}


@dataclass
class LayerParams:
    """Parameter bundle for one layer; unused fields stay None."""

    kind: str
    weights: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    bn_gamma: Optional[np.ndarray] = None
    bn_beta: Optional[np.ndarray] = None
    bn_running_mean: Optional[np.ndarray] = None
    bn_running_var: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _ARRAY_FIELDS:
            raise ContractError(f"unknown layer kind {self.kind!r}")
        for name in _ARRAY_FIELDS[self.kind]:
            arr = getattr(self, name)
            if arr is None:
                raise ContractError(f"{self.kind} layer is missing {name}")
            arr = np.asarray(arr, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"{self.kind}.{name} has non-finite values")
            setattr(self, name, arr)

    def copy(self) -> "LayerParams":
        kw = {
            name: getattr(self, name).copy()
            for name in _ARRAY_FIELDS[self.kind]
        }
        return LayerParams(kind=self.kind, **kw)


@dataclass
class TapeEntry:
    """Cache produced by a train-mode forward, consumed by backward."""

    kind: str
    cache: tuple = field(default=())


def _is_eval(mode) -> bool:
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "eval"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def make_fc(rng, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        kind="fc",
        weights=glorot_uniform(rng, d_in, d_out, (d_in, d_out)),
        bias=np.zeros(d_out),
    )


def make_graph_conv(rng, d_in: int, d_out: int) -> LayerParams:
    return replace(make_fc(rng, d_in, d_out), kind="graph_conv")


def make_conv2d(rng, kh: int, kw: int, c_in: int, c_out: int) -> LayerParams:
    # receptive-field fan convention
    fan_in = kh * kw * c_in
    fan_out = kh * kw * c_out
    return LayerParams(
        kind="conv2d",
        weights=glorot_uniform(rng, fan_in, fan_out, (kh, kw, c_in, c_out)),
        bias=np.zeros(c_out),
    )


def make_batch_norm(width: int) -> LayerParams:
    return LayerParams(
        kind="batch_norm",
        bn_gamma=np.ones(width),
        bn_beta=np.zeros(width),
        bn_running_mean=np.zeros(width),
        bn_running_var=np.ones(width),
    )


# ------------------------------------------------------------- product step

def _affine(x, w, bias):
    """x @ w + bias, with the bias added in place."""
    out = x @ w
    out += bias
    return out


def _affine_param_grads(dout, x) -> dict:
    """The weights and bias gradients of ``_affine(x, w, bias)``."""
    return {"weights": x.T @ dout, "bias": dout.sum(axis=0)}


# ---------------------------------------------------------------- graph conv

def graph_conv_forward(h, prop, p: LayerParams):
    """out = (prop @ h) @ W + b: the product step on propagated features,
    so with prop = I this is exactly an FC layer."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"vertex features must be 2-D, got {h.shape}")
    if h.shape[1] != p.weights.shape[0]:
        raise ShapeError(
            f"features {h.shape} do not match weights {p.weights.shape}"
        )
    s = prop @ h
    tape = TapeEntry("graph_conv", (s, prop, p.weights))
    return _affine(s, p.weights, p.bias), tape


def graph_conv_backward(dout, tape: TapeEntry):
    _check_tape(tape, "graph_conv")
    s, prop, w = tape.cache
    dout = np.asarray(dout, dtype=np.float64)
    # prop is symmetric, so prop^T = prop
    return prop @ (dout @ w.T), _affine_param_grads(dout, s)


# ------------------------------------------------------------------------ fc

def fully_connected_forward(x, p: LayerParams):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.weights.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weights {p.weights.shape}"
        )
    return _affine(x, p.weights, p.bias), TapeEntry("fc", (x, p.weights))


def fully_connected_backward(dout, tape: TapeEntry):
    _check_tape(tape, "fc")
    x, w = tape.cache
    dout = np.asarray(dout, dtype=np.float64)
    return dout @ w.T, _affine_param_grads(dout, x)


# ---------------------------------------------------------------------- relu

def relu_forward(x, mode="train"):
    """max(x, 0); eval mode keeps no mask and clamps x in place."""
    x = np.asarray(x, dtype=np.float64)
    if _is_eval(mode):
        return np.maximum(x, 0.0, out=x), None
    out = np.maximum(x, 0.0)
    return out, TapeEntry("relu", (x > 0.0,))


def relu_backward(dout, tape: TapeEntry):
    _check_tape(tape, "relu")
    (mask,) = tape.cache
    return np.asarray(dout) * mask


# -------------------------------------------------------------------- conv2d

def _im2col(xp, kh, kw):
    """(b, h, w, kh*kw*c) columns of a padded input, in (i, j, c) order."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    b, h, w, c = win.shape[:4]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(b, h, w, kh * kw * c)


def _tap_windows(kh, kw, h, w):
    """``(t, out_cells, in_cells)`` for each tap ``t = i*kw + j`` of a
    same-padded kh x kw kernel on an h x w map, in tap order: output cell
    (a, b) reads input cell (a + i - kh//2, b + j - kw//2), and both are
    (rows, columns) slices clipped to the map."""
    for i in range(kh):
        for j in range(kw):
            di, dj = i - kh // 2, j - kw // 2
            a0, a1 = max(0, -di), min(h, h - di)
            b0, b1 = max(0, -dj), min(w, w - dj)
            yield (i * kw + j, (slice(a0, a1), slice(b0, b1)),
                   (slice(a0 + di, a1 + di), slice(b0 + dj, b1 + dj)))


def conv2d_forward(x, p: LayerParams):
    """Same-padded stride-1 cross-correlation; kernel must be odd-sized."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-D (B,H,W,C), got {x.shape}")
    kh, kw, c_in, c_out = p.weights.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractError(f"kernel dims must be odd, got {kh}x{kw}")
    if x.shape[3] != c_in:
        raise ShapeError(
            f"input channels {x.shape[3]} do not match kernel {p.weights.shape}"
        )
    b, h, w, _ = x.shape
    cols = x  # a 1x1 kernel's columns are its unpadded input
    if kh > 1 or kw > 1:
        ph, pw = kh // 2, kw // 2
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        cols = _im2col(xp, kh, kw)
    wmat = p.weights.reshape(kh * kw * c_in, c_out)
    out = _affine(cols.reshape(-1, kh * kw * c_in), wmat, p.bias)
    out = out.reshape(b, h, w, c_out)
    tape = TapeEntry("conv2d", (cols, p.weights.shape, wmat, x.shape))
    return out, tape


def conv2d_param_grads(dout, tape: TapeEntry) -> dict:
    """The weights and bias gradients alone, for a layer whose input
    gradient nothing reads."""
    _check_tape(tape, "conv2d")
    cols, wshape, _, _ = tape.cache
    kh, kw, c_in, c_out = wshape
    dflat = np.asarray(dout, dtype=np.float64).reshape(-1, c_out)
    grads = _affine_param_grads(dflat, cols.reshape(-1, kh * kw * c_in))
    grads["weights"] = grads["weights"].reshape(wshape)
    return grads


def conv2d_backward(dout, tape: TapeEntry):
    dout = np.asarray(dout, dtype=np.float64)
    grads = conv2d_param_grads(dout, tape)
    _, wshape, wmat, xshape = tape.cache
    kh, kw, c_in, c_out = wshape
    b, h, w, _ = xshape
    dcols = (dout.reshape(-1, c_out) @ wmat.T).reshape(b, h, w, -1, c_in)
    dx = np.zeros((b, h, w, c_in))
    for t, (oa, ob), (ia, ib) in _tap_windows(kh, kw, h, w):
        dx[:, ia, ib] += dcols[:, oa, ob, t]
    return dx, grads


def conv2d_taps(x, p: LayerParams) -> np.ndarray:
    """Every kernel tap's product with every position of x: ``(blocks,
    positions, kh*kw, c_out)`` for x ``(blocks, positions, c_in)``, tap
    ``i*kw + j`` being ``x @ W[i, j]``. Each block is its own product, so a
    position's bits depend on its block alone, not on the blocks beside it.
    """
    kh, kw, c_in, c_out = p.weights.shape
    wall = p.weights.transpose(2, 0, 1, 3).reshape(c_in, kh * kw * c_out)
    out = np.matmul(np.asarray(x, dtype=np.float64), wall)
    return out.reshape(*out.shape[:2], kh * kw, c_out)


def conv2d_from_taps(taps, cells, p: LayerParams) -> np.ndarray:
    """``conv2d_forward`` of patches given as positions, from the
    positions' ``conv2d_taps``, without a tape: cell (a, b) of patch n is
    position ``cells[n, a, b]``, a row of ``taps`` ``(positions, kh*kw,
    c_out)``.

    Output cell (a, b) is the bias plus, in tap order, tap (i, j) of the
    cell (a + i - kh//2, b + j - kw//2) for each tap whose cell lies inside
    the patch: the patch's own zero padding drops the other taps. Patches
    that overlap share their positions' products, so an image position is
    multiplied by the kernel once, not once per patch that holds it.
    """
    kh, kw, _, c_out = p.weights.shape
    n, h, w = cells.shape
    out = np.empty((n, h, w, c_out))
    out[...] = p.bias
    for t, (oa, ob), (ia, ib) in _tap_windows(kh, kw, h, w):
        out[:, oa, ob] += taps[cells[:, ia, ib], t]
    return out


# ------------------------------------------------------------------- maxpool

def maxpool2x2_forward(x, mode="train"):
    """2x2/stride-2 max pooling with ceil-mode output (7 -> 4 -> 2 -> 1).

    Odd trailing rows/columns pool over the surviving elements; ties route
    the gradient to the first window element in row-major order, and a NaN
    wins its window, the first NaN if there are several. Eval mode selects
    alike but keeps no argmax index.
    """
    train = not _is_eval(mode)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"pool input must be 4-D (B,H,W,C), got {x.shape}")
    b, h, w, c = x.shape
    h2, w2 = -(-h // 2), -(-w // 2)
    xp = x
    if h % 2 or w % 2:
        xp = np.empty((b, h2 * 2, w2 * 2, c))
        xp[:, :h, :w, :] = x
        xp[:, h:, :, :] = -np.inf
        xp[:, :h, w:, :] = -np.inf
    win = xp.reshape(b, h2, 2, w2, 2, c)
    # one pass per window element in row-major order: a later element
    # takes the window only if it is greater, or NaN while the running max
    # is not, so `take` is "out is not NaN and q <= out fails"
    out = win[:, :, 0, :, 0, :]
    arg = np.zeros(out.shape, dtype=np.intp) if train else None
    keep = np.empty(out.shape, dtype=bool)
    take = np.empty(out.shape, dtype=bool)
    for k, (i, j) in enumerate(((0, 1), (1, 0), (1, 1)), start=1):
        q = win[:, :, i, :, j, :]
        np.less_equal(q, out, out=keep)
        np.equal(out, out, out=take)
        np.greater(take, keep, out=take)
        out = np.where(take, q, out)
        if train:  # k exceeds every earlier index
            np.maximum(arg, take * k, out=arg)
    return out, (TapeEntry("maxpool", (arg, x.shape)) if train else None)


def maxpool2x2_backward(dout, tape: TapeEntry):
    _check_tape(tape, "maxpool")
    arg, xshape = tape.cache
    b, h, w, c = xshape
    h2, w2 = -(-h // 2), -(-w // 2)
    dout = np.asarray(dout, dtype=np.float64)
    dwin = np.zeros((b, h2, w2, 4, c))
    np.put_along_axis(dwin, arg[:, :, :, None, :], dout[:, :, :, None, :],
                      axis=3)
    dxp = dwin.reshape(b, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    dxp = dxp.reshape(b, h2 * 2, w2 * 2, c)
    return dxp[:, :h, :w, :]


# ---------------------------------------------------------------- batch norm

def _bn_axes(x):
    if x.ndim == 2:
        return (0,)
    if x.ndim == 4:
        return (0, 1, 2)
    raise ShapeError(f"batch norm expects 2-D or 4-D input, got {x.shape}")


def batch_norm_forward(x, p: LayerParams, mode="train", momentum=0.9):
    """Normalize per feature/channel; train mode updates running stats.

    Running stats move as r <- momentum * r + (1 - momentum) * batch_stat
    using the biased batch variance. Eval mode is side-effect free and
    keeps no tape; it works in the one array that holds x - mean.
    """
    x = np.asarray(x, dtype=np.float64)
    axes = _bn_axes(x)
    width = x.shape[-1]
    if p.bn_gamma.shape != (width,):
        raise ShapeError(
            f"batch norm width {p.bn_gamma.shape} does not match input "
            f"shape {x.shape}"
        )
    if _is_eval(mode):
        inv = 1.0 / np.sqrt(p.bn_running_var + BN_EPS)
        out = np.subtract(x, p.bn_running_mean)
        np.multiply(p.bn_gamma, out, out=out)
        out *= inv
        out += p.bn_beta
        return out, None
    if x.shape[0] < 2:
        raise ContractError("batch norm training requires batch size >= 2")
    m = x.size // width
    # these sums reduce as x.mean and x.var do, so the bits match theirs;
    # x is centered once, and out reuses the buffer of the squares
    mean = x.sum(axis=axes) / m
    xhat = x - mean
    out = np.square(xhat)
    var = out.sum(axis=axes) / m
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    np.multiply(xhat, p.bn_gamma, out=out)
    out += p.bn_beta
    p.bn_running_mean = momentum * p.bn_running_mean + (1.0 - momentum) * mean
    p.bn_running_var = momentum * p.bn_running_var + (1.0 - momentum) * var
    tape = TapeEntry("batch_norm", (xhat, inv, p.bn_gamma, axes, m))
    return out, tape


def _bn_param_grads(dout, xhat, axes, prod) -> dict:
    np.multiply(dout, xhat, out=prod)
    return {"bn_gamma": prod.sum(axis=axes), "bn_beta": dout.sum(axis=axes)}


def batch_norm_param_grads(dout, tape: TapeEntry) -> dict:
    """The gamma and beta gradients alone, for a layer whose input
    gradient nothing reads."""
    _check_tape(tape, "batch_norm")
    xhat, _, _, axes, _ = tape.cache
    dout = np.asarray(dout, dtype=np.float64)
    return _bn_param_grads(dout, xhat, axes, np.empty(xhat.shape))


def batch_norm_backward(dout, tape: TapeEntry):
    """dx = inv/m * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)), taken in
    that order with dxhat = dout*gamma, built in dxhat's buffer; one more
    buffer holds dout*xhat, then dxhat*xhat, then xhat*sum(dxhat*xhat)."""
    _check_tape(tape, "batch_norm")
    xhat, inv, gamma, axes, m = tape.cache
    dout = np.asarray(dout, dtype=np.float64)
    prod = np.empty(xhat.shape)
    grads = _bn_param_grads(dout, xhat, axes, prod)
    dx = dout * gamma
    np.multiply(dx, xhat, out=prod)
    sum_prod = prod.sum(axis=axes, keepdims=True)
    sum_dxhat = dx.sum(axis=axes, keepdims=True)
    np.multiply(xhat, sum_prod, out=prod)
    dx *= m
    dx -= sum_dxhat
    dx -= prod
    dx *= inv / m
    return dx, grads


# ------------------------------------------------------- softmax with CE loss

def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood over the batch, with its own backward.

    labels must be one-hot rows; returns (loss, probs, tape).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape or logits.ndim != 2:
        raise ShapeError(
            f"logits {logits.shape} and labels {labels.shape} must be "
            "matching 2-D arrays"
        )
    if not (np.all((labels == 0.0) | (labels == 1.0))
            and np.all(labels.sum(axis=1) == 1.0)):
        raise ContractError("labels must be one-hot rows")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    total = expd.sum(axis=1, keepdims=True)
    probs = expd / total
    b = logits.shape[0]
    loss = float(-np.sum(labels * (shifted - np.log(total))) / b)
    tape = TapeEntry("softmax_ce", (probs, labels, b))
    return loss, probs, tape


def softmax_cross_entropy_backward(tape: TapeEntry):
    _check_tape(tape, "softmax_ce")
    probs, labels, b = tape.cache
    return (probs - labels) / b


def _check_tape(tape: TapeEntry, kind: str):
    if tape is None or tape.kind != kind:
        got = None if tape is None else tape.kind
        raise ContractError(f"backward for {kind} got tape of kind {got!r}")


# ------------------------------------------------------- parameter checkpoint

CHECKPOINT_MAGIC = b"MGKP1"


def save_params(fh, layers) -> None:
    """Serialize layers to the binary checkpoint format.

    Layout: magic, u32 layer count; per layer a u8-length-prefixed ascii
    kind tag, then each field array as u8 ndim, u32 dims, raw float64
    little-endian payload. Round-trips are bit exact.
    """
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<I", len(layers)))
    for p in layers:
        tag = p.kind.encode("ascii")
        fh.write(struct.pack("<B", len(tag)))
        fh.write(tag)
        for name in _ARRAY_FIELDS[p.kind]:
            arr = np.ascontiguousarray(getattr(p, name), dtype="<f8")
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def load_params(fh) -> list[LayerParams]:
    data = fh.read()
    if data[:5] != CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad checkpoint magic {data[:5]!r}, expected {CHECKPOINT_MAGIC!r}",
            offset=0,
        )
    pos = 5

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"truncated checkpoint while reading {what}",
                              offset=pos)
        out = data[pos:pos + n]
        pos += n
        return out

    (count,) = struct.unpack("<I", take(4, "layer count"))
    layers = []
    for i in range(count):
        (taglen,) = struct.unpack("<B", take(1, f"layer {i} kind length"))
        tag = take(taglen, f"layer {i} kind")
        try:
            kind = tag.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"layer {i} kind {tag!r} is not ASCII",
                              offset=pos - taglen) from exc
        if kind not in _ARRAY_FIELDS:
            raise FormatError(f"unknown layer kind {kind!r} in checkpoint",
                              offset=pos - taglen)
        kw = {}
        for name in _ARRAY_FIELDS[kind]:
            (ndim,) = struct.unpack("<B", take(1, f"{kind}.{name} ndim"))
            shape = tuple(
                struct.unpack("<I", take(4, f"{kind}.{name} dim"))[0]
                for _ in range(ndim)
            )
            raw = take(8 * math.prod(shape), f"{kind}.{name} payload")
            kw[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        layers.append(LayerParams(kind=kind, **kw))
    if pos != len(data):
        raise FormatError("trailing bytes after checkpoint payload", offset=pos)
    return layers
