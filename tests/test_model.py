import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FD_H, fd_grad, random_graph, rel_err
from mgk.errors import ConfigError, ContractError, ShapeError
from mgk import nn
from mgk.model import (_NO_TAPES, ARCHITECTURES, Model, ModelConfig,
                       TapPatches, _cnn_branch_forward, _gcn_branch_forward,
                       _head_forward, block1_taps, build, forward, fuse,
                       fuse_backward, load_model, loss_and_grads, predict,
                       save_model)
from mgk.sampler import induce_subgraph


def one_hot(classes, width):
    out = np.zeros((len(classes), width))
    out[np.arange(len(classes)), classes] = 1.0
    return out


def graph_batch(rng, n, bands, classes, k=None):
    """(features, prop, one-hot labels) of an n-vertex random graph."""
    g, feats = random_graph(rng, n, d=bands, k=k)
    labels = rng.integers(0, classes, size=n)
    labels[:classes] = np.arange(classes)  # every class present
    return (feats, induce_subgraph(g, (np.arange(n),)).prop_s,
            one_hot(labels, classes))


def patch_tensor(rng, n, size, bands):
    return rng.normal(size=(n, size, size, bands))


TOY = dict(input_bands=5, classes=3, gcn_hidden=4, cnn_channels=(2, 3, 4),
           fusion_fc=4, patch_size=3)


def toy_cfg(arch):
    return ModelConfig(architecture=arch, **TOY)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="architecture"):
        ModelConfig(architecture="mlp", input_bands=4, classes=2)
    with pytest.raises(ConfigError, match="odd"):
        ModelConfig(architecture="cnn2d", input_bands=4, classes=2,
                    patch_size=4)
    with pytest.raises(ConfigError):
        ModelConfig(architecture="gcn", input_bands=4, classes=1)
    with pytest.raises(ConfigError):
        ModelConfig(architecture="cnn2d", input_bands=4, classes=2,
                    cnn_channels=(8, 16))


def test_build_rejects_mismatched_fusion_widths():
    # additive/multiplicative fusion needs equal branch widths; with the
    # default patch the spatial branch flattens to cnn_channels[2]
    with pytest.raises(ConfigError, match="width"):
        build(ModelConfig(architecture="funet-a", input_bands=5, classes=3,
                          gcn_hidden=9, cnn_channels=(2, 3, 4),
                          patch_size=3))
    build(toy_cfg("funet-a"))  # matching widths are fine


def expected_param_count(cfg):
    """Hand-derived parameter total from the layer shape table."""
    total = 0
    if cfg.uses_patches:
        c1, c2, c3 = cfg.cnn_channels
        total += 3 * 3 * cfg.input_bands * c1 + c1 + 2 * c1
        total += 3 * 3 * c1 * c2 + c2 + 2 * c2
        total += 1 * 1 * c2 * c3 + c3 + 2 * c3
    if cfg.uses_graph:
        total += 2 * cfg.input_bands
        total += cfg.input_bands * cfg.gcn_hidden + cfg.gcn_hidden
        total += 2 * cfg.gcn_hidden
    total += cfg.head_input_width() * cfg.fusion_fc + cfg.fusion_fc
    total += 2 * cfg.fusion_fc
    total += cfg.fusion_fc * cfg.classes + cfg.classes
    return total


def param_count(model):
    """Trainable entries of a model, as the optimizer sees them."""
    return sum(getattr(layer, field).size
               for _, layer in model.named_params()
               for field in nn.TRAINABLE_FIELDS[layer.kind])


def test_cnn2d_parameter_count_closed_form():
    cfg = ModelConfig(architecture="cnn2d", input_bands=200, classes=16)
    assert param_count(build(cfg)) == expected_param_count(cfg)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_parameter_count_closed_form_all_architectures(arch):
    cfg = toy_cfg(arch)
    assert param_count(build(cfg)) == expected_param_count(cfg)


def test_funet_c_head_width_is_sum_of_branches():
    cfg = ModelConfig(architecture="funet-c", input_bands=200, classes=16)
    assert cfg.cnn_flat_width() == 128
    assert cfg.head_input_width() == 256
    assert build(cfg).layers["head.fc1"].weights.shape == (256, 128)


def test_gcn_and_minigcn_share_parameter_shapes():
    a = build(ModelConfig(architecture="gcn", input_bands=30, classes=5))
    b = build(ModelConfig(architecture="minigcn", input_bands=30, classes=5))
    assert list(a.layers) == list(b.layers)
    for name in a.layers:
        assert a.layers[name].kind == b.layers[name].kind
        assert a.layers[name].weights is None \
            or a.layers[name].weights.shape == b.layers[name].weights.shape


def test_fuse_hand_cases():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 4.0]])
    assert np.array_equal(fuse(a, b, "additive"), [[4.0, 6.0]])
    assert np.array_equal(fuse(a, b, "multiplicative"), [[3.0, 8.0]])
    assert np.array_equal(fuse(a, b, "concatenation"), [[1.0, 2.0, 3.0,
                                                         4.0]])


def test_fuse_rejects_width_mismatch():
    a = np.ones((2, 3))
    b = np.ones((2, 4))
    with pytest.raises(ShapeError):
        fuse(a, b, "additive")
    with pytest.raises(ShapeError):
        fuse(a, b, "multiplicative")
    assert fuse(a, b, "concatenation").shape == (2, 7)
    with pytest.raises(ShapeError):
        fuse(np.ones((2, 3)), np.ones((3, 3)), "concatenation")
    with pytest.raises(ContractError):
        fuse(a, a, "average")


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["additive", "multiplicative", "concatenation"]))
def test_fuse_backward_matches_finite_differences(seed, kind):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    w = rng.normal(size=(fuse(a, b, kind).shape[1],))

    def loss():
        return float(fuse(a, b, kind) @ w @ np.ones(3))

    dout = np.tile(w, (3, 1))
    da, db = fuse_backward(dout, a, b, kind)
    assert rel_err(da, fd_grad(loss, a)) <= 1e-6
    assert rel_err(db, fd_grad(loss, b)) <= 1e-6


def test_forward_validates_batch_contents():
    rng = np.random.default_rng(0)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    with pytest.raises(ContractError, match="patches"):
        forward(build(toy_cfg("funet-c")), feats, prop, patches=None)
    with pytest.raises(ContractError):
        forward(build(toy_cfg("gcn")), None, prop, None)
    with pytest.raises(ContractError, match="disagree"):
        forward(build(toy_cfg("funet-c")), feats, prop, patches[:4])
    narrow = induce_subgraph(random_graph(rng, 6, d=2)[0], (np.arange(6),))
    with pytest.raises(ShapeError, match="bands"):
        forward(build(toy_cfg("gcn")), rng.normal(size=(6, 2)),
                narrow.prop_s, None)
    with pytest.raises(ContractError, match="mode"):
        forward(build(toy_cfg("gcn")), feats, prop, None, mode="test")


@pytest.mark.parametrize("arch, features, patches, named", [
    ("minigcn", np.zeros(4), None, r"features .*\(4,\)"),
    ("minigcn", np.zeros((2, 3, 5)), None, r"features .*\(2, 3, 5\)"),
    ("funet-c", np.float64(1.0), "ok", r"features .*\(\)"),
    ("cnn2d", None, np.float64(1.0), r"patches .*\(\)"),
    ("cnn2d", None, np.zeros((2, 3, 3)), r"patches .*\(2, 3, 3\)"),
    ("funet-a", "ok", np.zeros(6), r"patches .*\(6,\)"),
], ids=["1d-features", "3d-features", "0d-features", "0d-patches",
        "3d-patches", "1d-patches"])
def test_forward_refuses_features_or_patches_of_the_wrong_rank(
        arch, features, patches, named):
    rng = np.random.default_rng(1)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    features = feats if isinstance(features, str) else features
    if isinstance(patches, str):
        patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    with pytest.raises(ShapeError, match=named):
        forward(build(toy_cfg(arch)), features, prop, patches=patches)


@pytest.mark.parametrize("arch", ["cnn2d", "funet-c"])
def test_eval_forward_reads_tap_patches_as_the_patches_they_stand_for(arch):
    # each patch's cells are its own positions, so the shared taps are the
    # per-patch conv's products summed in another order
    rng = np.random.default_rng(31)
    model = build(toy_cfg(arch), seed=14)
    randomize_batch_norms(model, rng)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    if not model.cfg.uses_graph:
        feats = prop = None
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    cells = np.arange(patches[..., 0].size).reshape(patches.shape[:3])
    taps = block1_taps(model, patches.reshape(6, -1, TOY["input_bands"]))
    shared = TapPatches(taps.reshape(-1, *taps.shape[2:]), cells)
    want, _ = forward(model, feats, prop, patches, mode="eval")
    got, _ = forward(model, feats, prop, shared, mode="eval")
    assert rel_err(got, want) <= 1e-13
    with pytest.raises(ContractError, match="eval"):
        forward(model, feats, prop, shared, mode="train")
    with pytest.raises(ShapeError, match=r"patches \(6, 3, 2, None\)"):
        forward(model, feats, prop, TapPatches(taps, cells[:, :, :2]))


def test_funet_a_forward_composes_from_branches():
    rng = np.random.default_rng(3)
    model = build(toy_cfg("funet-a"), seed=5)
    feats, prop, _ = graph_batch(rng, 8, TOY["input_bands"], TOY["classes"])
    patches = patch_tensor(rng, 8, TOY["patch_size"], TOY["input_bands"])
    logits, tapes = forward(model, feats, prop, patches)
    assert tapes is None
    h_cnn = _cnn_branch_forward(model, patches, _NO_TAPES, "eval", 0.9)
    h_gcn = _gcn_branch_forward(model, feats, prop, _NO_TAPES, "eval", 0.9)
    manual = _head_forward(model, fuse(h_cnn, h_gcn, "additive"), _NO_TAPES,
                           "eval", 0.9)
    assert rel_err(logits, manual) <= 1e-12


def test_zero_final_fc_gives_uniform_loss():
    rng = np.random.default_rng(4)
    model = build(toy_cfg("minigcn"), seed=1)
    model.layers["head.fc2"].weights[:] = 0.0
    model.layers["head.fc2"].bias[:] = 0.0
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    loss, _, logits = loss_and_grads(model, labels, feats, prop, l2=0.0)
    assert np.allclose(logits, 0.0)
    assert loss == pytest.approx(np.log(TOY["classes"]), abs=1e-12)


def test_l2_zero_reduces_to_cross_entropy():
    rng = np.random.default_rng(5)
    model = build(toy_cfg("gcn"), seed=2)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    loss0, _, logits = loss_and_grads(model, labels, feats, prop, l2=0.0)
    from mgk.nn import softmax_cross_entropy
    ce, _, _ = softmax_cross_entropy(logits, labels)
    assert loss0 == pytest.approx(ce, abs=1e-12)


def test_l2_term_scales_quadratically_with_weights():
    rng = np.random.default_rng(6)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    model = build(toy_cfg("minigcn"), seed=3)
    lam = 0.01

    def l2_term(m):
        loss_with, _, _ = loss_and_grads(m, labels, feats, prop, l2=lam)
        loss_without, _, _ = loss_and_grads(m, labels, feats, prop, l2=0.0)
        return loss_with - loss_without

    base = l2_term(model)
    doubled = model.copy()
    for _, layer in doubled.named_params():
        if layer.kind != "batch_norm":
            layer.weights *= 2.0
    # cross-entropy changes too, so compare the isolated quadratic term
    assert l2_term(doubled) == pytest.approx(4.0 * base, rel=1e-9)
    manual = lam * sum(float(np.sum(layer.weights ** 2))
                       for _, layer in model.named_params()
                       if layer.kind != "batch_norm")
    assert base == pytest.approx(manual, rel=1e-9)


def test_l2_rejects_negative():
    rng = np.random.default_rng(7)
    model = build(toy_cfg("gcn"))
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    with pytest.raises(ContractError):
        loss_and_grads(model, labels, feats, prop, l2=-0.5)


def test_l2_is_refused_before_the_running_statistics_move():
    rng = np.random.default_rng(8)
    model = build(toy_cfg("minigcn"), seed=4)
    feats, prop, labels = graph_batch(rng, 6, TOY["input_bands"],
                                      TOY["classes"])
    norms = [layer for _, layer in model.named_params()
             if layer.kind == "batch_norm"]
    before = [(layer.bn_running_mean.copy(), layer.bn_running_var.copy())
              for layer in norms]
    with pytest.raises(ContractError, match="l2"):
        loss_and_grads(model, labels, feats, prop, l2=-1.0)
    assert norms
    for layer, (mean, var) in zip(norms, before):
        assert np.array_equal(layer.bn_running_mean.view(np.uint64),
                              mean.view(np.uint64))
        assert np.array_equal(layer.bn_running_var.view(np.uint64),
                              var.view(np.uint64))


def test_loss_requires_labels():
    rng = np.random.default_rng(8)
    model = build(toy_cfg("gcn"))
    g, feats = random_graph(rng, 6, d=TOY["input_bands"])
    prop = induce_subgraph(g, (np.arange(6),)).prop_s
    with pytest.raises(ContractError, match="labels"):
        loss_and_grads(model, None, feats, prop)


@given(st.integers(0, 2**32 - 1))
def test_gcn_path_is_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = 7
    model = build(toy_cfg("gcn"), seed=9)
    g, feats = random_graph(rng, n, d=TOY["input_bands"])
    rng.integers(0, TOY["classes"], size=n)  # keeps the permutation's draw
    prop = induce_subgraph(g, (np.arange(n),)).prop_s
    logits, _ = forward(model, feats, prop, None)

    perm = rng.permutation(n)
    dense = prop.to_dense()[np.ix_(perm, perm)]
    from conftest import dense_to_sparse
    logits_p, _ = forward(model, feats[perm], dense_to_sparse(dense), None)
    assert rel_err(logits_p, logits[perm]) <= 1e-12


def randomize_batch_norms(model, rng):
    """Running stats and affine terms off their identity defaults, so that
    every term of an eval batch norm moves the bits."""
    for _, layer in model.named_params():
        if layer.kind == "batch_norm":
            width = layer.bn_gamma.size
            layer.bn_gamma = rng.normal(size=width)
            layer.bn_beta = rng.normal(size=width)
            layer.bn_running_mean = rng.normal(size=width)
            layer.bn_running_var = rng.uniform(0.5, 2.0, size=width)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_eval_forward_writes_into_none_of_its_inputs(arch):
    rng = np.random.default_rng(21)
    model = build(toy_cfg(arch), seed=12)
    randomize_batch_norms(model, rng)
    feats = prop = patches = None
    if model.cfg.uses_graph:
        feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"],
                                     TOY["classes"])
    if model.cfg.uses_patches:
        patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    inputs = [a for a in (feats, patches) if a is not None]
    if prop is not None:
        inputs += [prop.rows, prop.cols, prop.vals]
    before = [a.copy() for a in inputs]
    logits, tapes = forward(model, feats, prop, patches, mode="eval")
    assert tapes is None
    for a, kept in zip(inputs, before):
        assert np.array_equal(a.view(np.uint64), kept.view(np.uint64))
        assert not np.shares_memory(logits, a)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_eval_forward_keeps_no_layer_tape_past_the_next_layer(arch,
                                                              monkeypatch):
    rng = np.random.default_rng(22)
    model = build(toy_cfg(arch), seed=13)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    if not model.cfg.uses_graph:
        feats = prop = None
    if not model.cfg.uses_patches:
        patches = None
    tapes = []  # weak references, one per product layer's tape

    def spying(layer):
        def spy(*args):
            kept.append(sum(ref() is not None for ref in tapes))
            out, tape = layer(*args)
            tapes.append(weakref.ref(tape))
            return out, tape
        return spy

    for name in ("graph_conv_forward", "fully_connected_forward",
                 "conv2d_forward"):
        monkeypatch.setattr(nn, name, spying(getattr(nn, name)))
    for mode in ("eval", "train"):
        kept = []  # live earlier tapes as each product layer starts
        tapes.clear()
        forward(model, feats, prop, patches, mode=mode)
        # eval mode frees each tape before the next product layer runs;
        # train mode keeps them all for backward
        want = [0] * len(kept) if mode == "eval" else list(range(len(kept)))
        assert len(kept) >= 2 and kept == want, mode


def test_eval_forward_is_side_effect_free():
    rng = np.random.default_rng(10)
    model = build(toy_cfg("funet-c"), seed=11)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"])
    before = {name: layer.copy() for name, layer in model.named_params()}
    first, _ = forward(model, feats, prop, patches)
    second, _ = forward(model, feats, prop, patches)
    assert np.array_equal(first, second)
    for name, layer in model.named_params():
        for field in ("weights", "bias", "bn_gamma", "bn_beta",
                      "bn_running_mean", "bn_running_var"):
            kept = getattr(before[name], field)
            now = getattr(layer, field)
            assert (kept is None and now is None) or np.array_equal(kept,
                                                                    now)


def test_train_forward_updates_running_stats():
    rng = np.random.default_rng(12)
    model = build(toy_cfg("gcn"), seed=13)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    before = model.layers["gcn.bn_in"].bn_running_mean.copy()
    forward(model, feats, prop, None, mode="train")
    assert not np.array_equal(before,
                              model.layers["gcn.bn_in"].bn_running_mean)


def test_predict_returns_argmax_classes():
    rng = np.random.default_rng(14)
    model = build(toy_cfg("minigcn"), seed=15)
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    logits, _ = forward(model, feats, prop, None)
    assert np.array_equal(predict(model, feats, prop),
                          np.argmax(logits, axis=1))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_checkpoint_round_trip_is_bit_exact(arch, tmp_path):
    rng = np.random.default_rng(16)
    model = build(toy_cfg(arch), seed=17)
    # give running stats non-default values so the round trip covers them
    feats, prop, _ = graph_batch(rng, 6, TOY["input_bands"], TOY["classes"])
    patches = patch_tensor(rng, 6, TOY["patch_size"], TOY["input_bands"]) \
        if model.cfg.uses_patches else None
    forward(model, feats, prop, patches, mode="train")
    path = tmp_path / "model.mgkp"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.cfg == model.cfg
    assert list(loaded.layers) == list(model.layers)
    for name in model.layers:
        a, b = model.layers[name], loaded.layers[name]
        assert a.kind == b.kind
        for field in ("weights", "bias", "bn_gamma", "bn_beta",
                      "bn_running_mean", "bn_running_var"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) \
                or (x.tobytes() == y.tobytes() and x.dtype == y.dtype)
    save_model(tmp_path / "again.mgkp", loaded)
    assert (tmp_path / "model.mgkp").read_bytes() \
        == (tmp_path / "again.mgkp").read_bytes()
    assert (tmp_path / "model.mgkp.json").read_bytes() \
        == (tmp_path / "again.mgkp.json").read_bytes()


def test_sidecar_text_is_pinned(tmp_path):
    cfg = ModelConfig("gcn", 5, 3, gcn_hidden=4, cnn_channels=(2, 3, 4),
                      fusion_fc=6, patch_size=3, graph_k=7, graph_sigma=2)
    save_model(tmp_path / "m.mgkp", build(cfg, seed=0))
    assert (tmp_path / "m.mgkp.json").read_text() == (
        '{\n "config": {\n  "architecture": "gcn",\n  "classes": 3,\n'
        '  "cnn_channels": [\n   2,\n   3,\n   4\n  ],\n'
        '  "fusion_fc": 6,\n  "gcn_hidden": 4,\n  "graph_k": 7,\n'
        '  "graph_sigma": 2.0,\n  "input_bands": 5,\n  "patch_size": 3\n'
        ' }\n}\n')
    assert load_model(tmp_path / "m.mgkp").cfg == cfg


def test_checkpoint_rejects_sidecar_mismatch(tmp_path):
    model = build(toy_cfg("gcn"), seed=18)
    path = tmp_path / "model.mgkp"
    save_model(path, model)
    sidecar = (tmp_path / "model.mgkp.json")
    text = sidecar.read_text()
    sidecar.write_text(text.replace('"gcn_hidden": 4', '"gcn_hidden": 5'))
    with pytest.raises(ContractError, match="^layer gcn.conv.weights has "
                       r"shape \(5, 4\), expected \(5, 5\)$"):
        load_model(path)
    sidecar.write_text(text.replace('"gcn"', '"cnn2d"'))
    with pytest.raises(ContractError,
                       match="^checkpoint has 6 layers, cnn2d has 9$"):
        load_model(path)
    # gcn and minigcn share one layout, so the swap loads
    sidecar.write_text(text.replace('"gcn"', '"minigcn"'))
    assert load_model(path).cfg.architecture == "minigcn"


def full_model_gradcheck(arch, seed=0, kernel_relief=True):
    """Finite-difference check of every trainable array in one model."""
    rng = np.random.default_rng(seed)
    n = 6
    cfg = toy_cfg(arch)
    model = build(cfg, seed=seed + 1)
    feats, prop, labels = graph_batch(rng, n, cfg.input_bands, cfg.classes)
    patches = patch_tensor(rng, n, cfg.patch_size, cfg.input_bands) \
        if cfg.uses_patches else None
    # pooled/ReLU kinks make FD unreliable exactly at ties; nudging the
    # inputs away from zero keeps every probe on one side of each kink
    if kernel_relief and patches is not None:
        patches += 0.05 * np.sign(patches)
    _, grads, _ = loss_and_grads(model, labels, feats, prop, patches,
                                 l2=0.001)
    # measure the whole gradient vector at once: fields whose true gradient
    # is identically zero (a bias feeding batch norm) otherwise compare
    # finite-difference noise against a zero denominator
    abs_err = 0.0
    scale = 1e-8
    for name, layer in model.named_params():
        from mgk.nn import TRAINABLE_FIELDS
        for field in TRAINABLE_FIELDS[layer.kind]:
            arr = getattr(layer, field)

            def loss():
                trial = model.copy()
                trial.layers[name] = layer  # share the perturbed layer
                val, _, _ = loss_and_grads(trial, labels, feats, prop,
                                           patches, l2=0.001)
                return val

            num = fd_grad(loss, arr, h=FD_H)
            ana = grads[name][field]
            abs_err = max(abs_err, float(np.max(np.abs(ana - num))))
            scale = max(scale, float(np.max(np.abs(ana))),
                        float(np.max(np.abs(num))))
    return abs_err / scale


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_full_model_gradients_match_finite_differences(arch):
    assert full_model_gradcheck(arch) <= 1e-4
