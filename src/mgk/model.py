"""Classifier architectures: spectral branch, spatial branch, fusion heads.

Six architectures share the same parts:

* ``gcn`` / ``minigcn``  -- BN, graph conv, BN, ReLU on vertex features,
  then the shared head. The two differ only in how they are trained
  (full batch vs sampled subgraph batches); the parameter layout is
  identical.
* ``cnn2d``              -- three blocks of (conv, BN, 2x2 max pool, ReLU)
  on image patches: 3x3 then 3x3 then 1x1 kernels, channels growing
  per config, then the shared head.
* ``funet-a/m/c``        -- both branches, merged additively,
  multiplicatively, or by concatenation (spatial features first), then
  the shared head.

The shared head is FC, BN, ReLU, then the final FC whose softmax feeds the
cross-entropy loss. Training is joint end to end: one loss, gradients into
both branches.

The model takes its inputs as arrays: the graph branch reads a batch's
vertex features and the propagation operator of the batch's graph, the
spatial branch its image patches, and the loss its one-hot labels. In eval
mode the spatial branch may instead read ``TapPatches``: the patches as
image positions, whose block-1 tap products (``block1_taps``) are shared
between the patches that overlap there; inference hands it those.
``forward`` checks every input's shape once, before either branch runs,
and the branches and the head write their tapes into its one table. A
``Model``'s layer table is kept in layer order, the order ``build`` gives
and of the checkpoint's blocks. ``ModelConfig`` also holds the (k, sigma)
of the KNN graphs its graph branch was trained on, which inference uses
for its chunk graphs; the sidecar is the config alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import _is_json_int, read_json
from .errors import (ConfigError, ContractError, FormatError, NumericError,
                     ShapeError)
from . import nn

ARCHITECTURES = ("gcn", "minigcn", "cnn2d", "funet-a", "funet-m", "funet-c")
_ARCH_FUSION = {"funet-a": "additive", "funet-m": "multiplicative",
                "funet-c": "concatenation"}


@dataclass
class ModelConfig:
    architecture: str
    input_bands: int
    classes: int
    gcn_hidden: int = 128
    cnn_channels: tuple = (32, 64, 128)
    fusion_fc: int = 128
    patch_size: int = 7
    graph_k: int = 10
    graph_sigma: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(
                f"unknown architecture {self.architecture!r}; expected one "
                f"of {ARCHITECTURES}"
            )
        self.cnn_channels = tuple(int(c) for c in self.cnn_channels)
        if len(self.cnn_channels) != 3:
            raise ConfigError("cnn_channels must list three block widths")
        for name in ("input_bands", "classes", "gcn_hidden", "fusion_fc",
                     "patch_size", "graph_k"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.graph_sigma = float(self.graph_sigma)
        if not 0.0 < self.graph_sigma < np.inf:
            raise ConfigError("graph_sigma must be positive and finite, got "
                              f"{self.graph_sigma}")
        if min(self.cnn_channels) < 1:
            raise ConfigError("cnn_channels must be >= 1")
        if self.patch_size % 2 == 0:
            raise ConfigError(
                f"patch_size must be odd, got {self.patch_size}"
            )
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.fusion_kind in ("additive", "multiplicative") \
                and self.cnn_flat_width() != self.gcn_hidden:
            raise ConfigError(
                f"{self.architecture} needs matching branch widths; spatial "
                f"branch emits {self.cnn_flat_width()}, spectral emits "
                f"{self.gcn_hidden}")

    @property
    def fusion_kind(self):
        return _ARCH_FUSION.get(self.architecture)

    @property
    def uses_graph(self) -> bool:
        return self.architecture != "cnn2d"

    @property
    def uses_patches(self) -> bool:
        return self.architecture in ("cnn2d", "funet-a", "funet-m", "funet-c")

    def cnn_flat_width(self) -> int:
        s = self.patch_size
        for _ in range(3):
            s = -(-s // 2)
        return s * s * self.cnn_channels[2]

    def head_input_width(self) -> int:
        if self.fusion_kind in ("additive", "multiplicative"):
            return self.gcn_hidden  # the branches' common width
        return (self.cnn_flat_width() * self.uses_patches
                + self.gcn_hidden * self.uses_graph)


class Model:
    """Config plus a name -> LayerParams table, whose insertion order is the
    layer order."""

    def __init__(self, cfg: ModelConfig, layers: dict):
        self.cfg = cfg
        self.layers = layers

    def named_params(self):
        return list(self.layers.items())

    def copy(self) -> "Model":
        return Model(self.cfg, {k: v.copy() for k, v in self.layers.items()})


def build(cfg: ModelConfig, seed=0) -> Model:
    """Initialize a model; weights are Glorot-uniform draws from the seed."""
    rng = np.random.default_rng(seed)
    layers = {}
    if cfg.uses_patches:
        c1, c2, c3 = cfg.cnn_channels
        layers["cnn.block1.conv"] = nn.make_conv2d(rng, 3, 3, cfg.input_bands,
                                                   c1)
        layers["cnn.block1.bn"] = nn.make_batch_norm(c1)
        layers["cnn.block2.conv"] = nn.make_conv2d(rng, 3, 3, c1, c2)
        layers["cnn.block2.bn"] = nn.make_batch_norm(c2)
        layers["cnn.block3.conv"] = nn.make_conv2d(rng, 1, 1, c2, c3)
        layers["cnn.block3.bn"] = nn.make_batch_norm(c3)
    if cfg.uses_graph:
        layers["gcn.bn_in"] = nn.make_batch_norm(cfg.input_bands)
        layers["gcn.conv"] = nn.make_graph_conv(rng, cfg.input_bands,
                                                cfg.gcn_hidden)
        layers["gcn.bn_out"] = nn.make_batch_norm(cfg.gcn_hidden)
    layers["head.fc1"] = nn.make_fc(rng, cfg.head_input_width(),
                                    cfg.fusion_fc)
    layers["head.bn"] = nn.make_batch_norm(cfg.fusion_fc)
    layers["head.fc2"] = nn.make_fc(rng, cfg.fusion_fc, cfg.classes)
    return Model(cfg, layers)


# -------------------------------------------------------------------- fusion

def fuse(h_cnn, h_gcn, kind: str) -> np.ndarray:
    """Merge branch features; concatenation puts spatial features first."""
    h_cnn = np.asarray(h_cnn, dtype=np.float64)
    h_gcn = np.asarray(h_gcn, dtype=np.float64)
    if h_cnn.ndim != 2 or h_gcn.ndim != 2 \
            or h_cnn.shape[0] != h_gcn.shape[0]:
        raise ShapeError(
            f"branch outputs {h_cnn.shape} and {h_gcn.shape} do not align"
        )
    if kind == "concatenation":
        return np.concatenate([h_cnn, h_gcn], axis=1)
    if h_cnn.shape != h_gcn.shape:
        raise ShapeError(
            f"{kind} fusion needs equal shapes, got {h_cnn.shape} and "
            f"{h_gcn.shape}"
        )
    if kind == "additive":
        return h_cnn + h_gcn
    if kind == "multiplicative":
        return h_cnn * h_gcn
    raise ContractError(f"unknown fusion kind {kind!r}")


def fuse_backward(dout, h_cnn, h_gcn, kind: str):
    dout = np.asarray(dout, dtype=np.float64)
    if kind == "concatenation":
        w = h_cnn.shape[1]
        return dout[:, :w], dout[:, w:]
    if kind == "additive":
        return dout, dout
    if kind == "multiplicative":
        return dout * h_gcn, dout * h_cnn
    raise ContractError(f"unknown fusion kind {kind!r}")


# ------------------------------------------------------------------ branches

@dataclass(frozen=True)
class TapPatches:
    """Patches as image positions, for an eval-mode forward: cell (a, b) of
    patch n is position ``cells[n, a, b]``, and row p of ``taps`` is
    position p's ``block1_taps`` under the model that reads them."""

    taps: np.ndarray
    cells: np.ndarray

    @property
    def shape(self) -> tuple:
        """The shape of the patches, whose bands the taps do not hold."""
        return self.cells.shape + (None,)


def block1_taps(model: Model, pixels) -> np.ndarray:
    """Block 1's tap products of ``(blocks, positions, bands)`` pixels: one
    product per block, so a position's bits depend on its block alone."""
    return nn.conv2d_taps(pixels, model.layers["cnn.block1.conv"])


class _NoTapes:
    """Eval mode's tape table: it keeps nothing, so temporaries die early."""

    def __setitem__(self, name, tape):
        pass


_NO_TAPES = _NoTapes()


def _gcn_branch_forward(model: Model, x, prop, tapes, mode, bn_momentum):
    L = model.layers
    h, tapes["gcn.bn_in"] = nn.batch_norm_forward(x, L["gcn.bn_in"], mode,
                                                  bn_momentum)
    h, tapes["gcn.conv"] = nn.graph_conv_forward(h, prop, L["gcn.conv"])
    h, tapes["gcn.bn_out"] = nn.batch_norm_forward(h, L["gcn.bn_out"], mode,
                                                   bn_momentum)
    h, tapes["gcn.relu"] = nn.relu_forward(h, mode)
    return h


def _gcn_branch_backward(dh, tapes, grads):
    dh = nn.relu_backward(dh, tapes["gcn.relu"])
    dh, grads["gcn.bn_out"] = nn.batch_norm_backward(dh, tapes["gcn.bn_out"])
    dh, grads["gcn.conv"] = nn.graph_conv_backward(dh, tapes["gcn.conv"])
    # the vertex features' gradient is never read, so bn_in stops at its
    # own parameters
    grads["gcn.bn_in"] = nn.batch_norm_param_grads(dh, tapes["gcn.bn_in"])


def _cnn_branch_forward(model: Model, patches, tapes, mode, bn_momentum):
    """The spatial branch on a patch array, or on ``TapPatches``, whose
    block-1 conv sums shared tap products instead of running its own
    product."""
    L = model.layers
    h = patches
    for blk in ("cnn.block1", "cnn.block2", "cnn.block3"):
        if isinstance(h, TapPatches):
            h = nn.conv2d_from_taps(h.taps, h.cells, L[f"{blk}.conv"])
        else:
            h, tapes[f"{blk}.conv"] = nn.conv2d_forward(h, L[f"{blk}.conv"])
        h, tapes[f"{blk}.bn"] = nn.batch_norm_forward(h, L[f"{blk}.bn"],
                                                      mode, bn_momentum)
        h, tapes[f"{blk}.pool"] = nn.maxpool2x2_forward(h, mode)
        h, tapes[f"{blk}.relu"] = nn.relu_forward(h, mode)
    tapes["cnn.flatten_shape"] = h.shape
    return h.reshape(h.shape[0], -1)


def _cnn_branch_backward(dflat, tapes, grads):
    dh = dflat.reshape(tapes["cnn.flatten_shape"])
    for blk in ("cnn.block3", "cnn.block2", "cnn.block1"):
        dh = nn.relu_backward(dh, tapes[f"{blk}.relu"])
        dh = nn.maxpool2x2_backward(dh, tapes[f"{blk}.pool"])
        dh, grads[f"{blk}.bn"] = nn.batch_norm_backward(dh, tapes[f"{blk}.bn"])
        if blk != "cnn.block1":
            dh, grads[f"{blk}.conv"] = nn.conv2d_backward(dh,
                                                          tapes[f"{blk}.conv"])
    # the patches' gradient is never read, so block 1's conv stops at its
    # own parameters
    grads["cnn.block1.conv"] = nn.conv2d_param_grads(
        dh, tapes["cnn.block1.conv"])


def _head_forward(model: Model, h, tapes, mode, bn_momentum):
    L = model.layers
    h, tapes["head.fc1"] = nn.fully_connected_forward(h, L["head.fc1"])
    h, tapes["head.bn"] = nn.batch_norm_forward(h, L["head.bn"], mode,
                                                bn_momentum)
    h, tapes["head.relu"] = nn.relu_forward(h, mode)
    logits, tapes["head.fc2"] = nn.fully_connected_forward(h, L["head.fc2"])
    return logits


def _head_backward(dlogits, tapes, grads):
    dh, grads["head.fc2"] = nn.fully_connected_backward(dlogits,
                                                        tapes["head.fc2"])
    dh = nn.relu_backward(dh, tapes["head.relu"])
    dh, grads["head.bn"] = nn.batch_norm_backward(dh, tapes["head.bn"])
    dh, grads["head.fc1"] = nn.fully_connected_backward(dh, tapes["head.fc1"])
    return dh


# ------------------------------------------------------------ forward / loss

def _check_inputs(model: Model, features, prop, patches, mode):
    cfg = model.cfg
    sizes = set()
    if cfg.uses_graph:
        if features is None or prop is None:
            raise ContractError(
                f"{cfg.architecture} needs vertex features and a batch "
                "propagation operator"
            )
        shape = np.shape(features)
        if len(shape) != 2:
            raise ShapeError(f"features must be 2-D, got shape {shape}")
        if shape[1] != cfg.input_bands:
            raise ShapeError(
                f"features have {shape[1]} bands, model expects "
                f"{cfg.input_bands}"
            )
        sizes.add(shape[0])
    if cfg.uses_patches:
        if patches is None:
            raise ContractError(f"{cfg.architecture} needs image patches")
        if isinstance(patches, TapPatches) and mode != "eval":
            raise ContractError("TapPatches feed eval-mode forwards only")
        shape, s = np.shape(patches), cfg.patch_size
        if shape[1:] not in ((s, s, cfg.input_bands), (s, s, None)):
            raise ShapeError(f"patches {shape} do not match configured "
                             f"{s}x{s}x{cfg.input_bands}")
        sizes.add(shape[0])
    if len(sizes) > 1:
        raise ContractError(
            f"patch rows and vertex rows disagree: {sorted(sizes)}"
        )


def forward(model: Model, features=None, prop=None, patches=None,
            mode="eval", bn_momentum=0.9):
    """Logits for a batch; train mode returns the tapes for backward.

    A graph architecture reads the batch's ``(rows, bands)`` vertex
    features and ``prop``, the propagation operator of its graph; a patch
    architecture reads its ``(rows, size, size, bands)`` patches, or in
    eval mode its ``TapPatches``. Eval mode
    is side-effect free (running stats untouched) and returns
    (logits, None): it keeps no tapes, and works in place only in arrays
    that it allocated, never in its inputs.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    _check_inputs(model, features, prop, patches, mode)
    cfg = model.cfg
    tapes = {} if mode == "train" else _NO_TAPES
    h_cnn = h_gcn = None
    if cfg.uses_patches:
        h_cnn = _cnn_branch_forward(model, patches, tapes, mode, bn_momentum)
    if cfg.uses_graph:
        h_gcn = _gcn_branch_forward(model, features, prop, tapes, mode,
                                    bn_momentum)
    if cfg.fusion_kind is not None:
        fused = fuse(h_cnn, h_gcn, cfg.fusion_kind)
        tapes["fusion"] = (h_cnn, h_gcn)
    else:
        fused = h_cnn if h_gcn is None else h_gcn
    logits = _head_forward(model, fused, tapes, mode, bn_momentum)
    return logits, (tapes if mode == "train" else None)


def loss_and_grads(model: Model, labels, features=None, prop=None,
                   patches=None, l2: float = 0.001, bn_momentum=0.9):
    """Cross-entropy + L2(weights) loss with gradients for every layer.

    ``labels`` holds one one-hot row per batch row; the inputs are
    ``forward``'s. The L2 term covers weight matrices/kernels only; biases
    and batch-norm parameters are exempt. Returns (loss, grads, logits)
    with grads keyed like named_params.
    """
    if labels is None:
        raise ContractError("training batch has no labels")
    if l2 < 0:
        raise ContractError(f"l2 must be >= 0, got {l2}")
    logits, tapes = forward(model, features, prop, patches, mode="train",
                            bn_momentum=bn_momentum)
    loss, _, ce_tape = nn.softmax_cross_entropy(logits, labels)
    grads = {}
    dlogits = nn.softmax_cross_entropy_backward(ce_tape)
    dfused = _head_backward(dlogits, tapes, grads)
    cfg = model.cfg
    d_cnn = d_gcn = dfused
    if cfg.fusion_kind is not None:
        d_cnn, d_gcn = fuse_backward(dfused, *tapes["fusion"],
                                     cfg.fusion_kind)
    if cfg.uses_patches:
        _cnn_branch_backward(d_cnn, tapes, grads)
    if cfg.uses_graph:
        _gcn_branch_backward(d_gcn, tapes, grads)
    if l2 > 0:
        for name, layer in model.named_params():
            if layer.kind == "batch_norm":
                continue
            w = layer.weights
            loss += l2 * float(np.sum(w * w))
            # every weight gradient is a fresh array of the backward pass,
            # shared with no parameter or tape
            grads[name]["weights"] += 2.0 * l2 * w
    if not np.isfinite(loss):
        raise NumericError("loss is not finite")
    return loss, grads, logits


def predict(model: Model, features=None, prop=None, patches=None
            ) -> np.ndarray:
    """Zero-based argmax class indices under eval-mode forward."""
    logits, _ = forward(model, features, prop, patches, mode="eval")
    return np.argmax(logits, axis=1)


# ----------------------------------------------------------------- persistence

def save_model(path, model: Model) -> None:
    """Binary parameter checkpoint plus a JSON sidecar at path + '.json'."""
    with open(path, "wb") as fh:
        nn.save_params(fh, list(model.layers.values()))
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"config": asdict(model.cfg)}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _require_keys(obj, keys, what: str) -> None:
    """A FormatError unless obj is a JSON object with exactly these keys."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{what} is missing {key!r}")
    for key in obj:
        if key not in keys:
            raise FormatError(f"{what} has unknown key {key!r}")


def _read_sidecar(path) -> ModelConfig:
    """The sidecar's ``ModelConfig``. A FormatError names the key that is
    missing, unknown, or of the wrong JSON type, so a sidecar written
    before the config held ``graph_k`` is refused; the config values are
    then checked as ``ModelConfig`` checks them."""
    name = str(path) + ".json"
    sidecar = read_json(name, f"unparseable sidecar {name}")
    _require_keys(sidecar, ("config",), "sidecar")
    config = sidecar["config"]
    _require_keys(config, [f.name for f in fields(ModelConfig)],
                  "sidecar 'config'")
    for key, value in config.items():
        if key == "architecture":
            want, ok = "a string", isinstance(value, str)
        elif key == "cnn_channels":
            want = "a list of 3 integers"
            ok = (isinstance(value, list) and len(value) == 3
                  and all(_is_json_int(c) for c in value))
        elif key == "graph_sigma":
            want, ok = "a number", type(value) is float or _is_json_int(value)
        else:
            want, ok = "an integer", _is_json_int(value)
        if not ok:
            raise FormatError(f"sidecar config {key!r} must be {want}, "
                              f"got {value!r}")
    return ModelConfig(**config)


def load_model(path) -> Model:
    cfg = _read_sidecar(path)
    with open(path, "rb") as fh:
        params = nn.load_params(fh)
    rebuilt = build(cfg, seed=0)
    if len(params) != len(rebuilt.layers):
        raise ContractError(
            f"checkpoint has {len(params)} layers, {cfg.architecture} has "
            f"{len(rebuilt.layers)}"
        )
    for (name, fresh), loaded in zip(list(rebuilt.layers.items()), params):
        if loaded.kind != fresh.kind:
            raise ContractError(
                f"layer {name} has kind {loaded.kind!r}, expected "
                f"{fresh.kind!r}"
            )
        for fieldname in nn._ARRAY_FIELDS[loaded.kind]:
            got = getattr(loaded, fieldname).shape
            want = getattr(fresh, fieldname).shape
            if got != want:
                raise ContractError(
                    f"layer {name}.{fieldname} has shape {got}, expected "
                    f"{want}"
                )
        rebuilt.layers[name] = loaded
    return rebuilt
