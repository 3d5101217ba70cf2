"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single ``[ACCEPTANCE nn] PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a full run doubles as a checklist.
"""

import itertools
import os
import time

import numpy as np
import pytest

from conftest import fd_grad, random_graph, rel_err
from mgk import nn
from mgk.bench import run_scaling
from mgk.data import synth_scene
from mgk.graph import (build_knn_rbf_graph, chebyshev_scaled, laplacian,
                       renormalized_propagation, sym_normalized_laplacian)
from mgk.linalg import symmetric_eigendecomposition
from mgk.metrics import average_accuracy, overall_accuracy
from mgk.model import ModelConfig, build, forward, fuse, fuse_backward, \
    save_model
from mgk.pipeline import (dataset_from_parts, evaluate_part, format_log_rows,
                          infer_model_config, load_dataset, train_model)
from mgk.sampler import (estimator_bias_diagnostic, induce_subgraph,
                         partition_epoch)
from mgk.spectral import (chebyshev_filter, first_order_as_chebyshev,
                          first_order_filter, spectral_filter)
from test_metrics import (REFERENCE_PER_CLASS, REFERENCE_TEST_COUNTS,
                          cm_from_recalls)
from test_model import full_model_gradcheck

INDIAN_PINES_ENV = "MGK_INDIAN_PINES_DIR"


def _verdict(num, ok, desc):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


# --------------------------------------------------- 1: gradient correctness

def _proj_loss(forward_fn, r):
    def loss():
        return float(np.sum(forward_fn() * r))
    return loss


def _check_graph_conv(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    d_in, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    g, _ = random_graph(rng, n, d=2)
    prop = renormalized_propagation(g.adjacency)
    h = rng.normal(size=(n, d_in))
    p = nn.make_graph_conv(rng, d_in, d_out)
    r = rng.normal(size=(n, d_out))
    loss = _proj_loss(lambda: nn.graph_conv_forward(h, prop, p)[0], r)
    _, tape = nn.graph_conv_forward(h, prop, p)
    dh, grads = nn.graph_conv_backward(r, tape)
    return max(rel_err(dh, fd_grad(loss, h)),
               rel_err(grads["weights"], fd_grad(loss, p.weights)),
               rel_err(grads["bias"], fd_grad(loss, p.bias)))


def _check_conv2d(seed):
    rng = np.random.default_rng(seed)
    kh = int(rng.choice([1, 3]))
    c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    side = int(rng.choice([3, 5]))
    b = int(rng.integers(1, 4))
    x = rng.normal(size=(b, side, side, c_in))
    p = nn.make_conv2d(rng, kh, kh, c_in, c_out)
    r = rng.normal(size=(b, side, side, c_out))
    loss = _proj_loss(lambda: nn.conv2d_forward(x, p)[0], r)
    _, tape = nn.conv2d_forward(x, p)
    dx, grads = nn.conv2d_backward(r, tape)
    return max(rel_err(dx, fd_grad(loss, x)),
               rel_err(grads["weights"], fd_grad(loss, p.weights)),
               rel_err(grads["bias"], fd_grad(loss, p.bias)))


def _window_gap(x):
    """Smallest max-vs-runner-up margin over all pooling windows."""
    b, h, w, c = x.shape
    gap = np.inf
    for i in range(0, h, 2):
        for j in range(0, w, 2):
            win = x[:, i:i + 2, j:j + 2, :].reshape(b, -1, c)
            if win.shape[1] < 2:
                continue
            top2 = np.sort(win, axis=1)[:, -2:, :]
            gap = min(gap, float(np.min(top2[:, 1] - top2[:, 0])))
    return gap


def _check_maxpool(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 4))
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    c = int(rng.integers(1, 4))
    x = rng.normal(size=(b, h, w, c))
    # finite differences straddle the selection kink when a window has a
    # near-tie; redraw (deterministically) until every margin is comfortable
    while _window_gap(x) < 1e-3:
        x = rng.normal(size=(b, h, w, c))
    out, tape = nn.maxpool2x2_forward(x)
    r = rng.normal(size=out.shape)
    loss = _proj_loss(lambda: nn.maxpool2x2_forward(x)[0], r)
    dx = nn.maxpool2x2_backward(r, tape)
    return rel_err(dx, fd_grad(loss, x))


def _check_batch_norm(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 6))
    width = int(rng.integers(1, 5))
    x = rng.normal(size=(b, width))
    p = nn.make_batch_norm(width)
    p.bn_gamma[:] = rng.normal(size=width)
    p.bn_beta[:] = rng.normal(size=width)
    r = rng.normal(size=(b, width))
    loss = _proj_loss(lambda: nn.batch_norm_forward(x, p, "train")[0], r)
    _, tape = nn.batch_norm_forward(x, p, "train")
    dx, grads = nn.batch_norm_backward(r, tape)
    return max(rel_err(dx, fd_grad(loss, x)),
               rel_err(grads["bn_gamma"], fd_grad(loss, p.bn_gamma)),
               rel_err(grads["bn_beta"], fd_grad(loss, p.bn_beta)))


def _check_fc(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 5))
    d_in, d_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    h = rng.normal(size=(b, d_in))
    p = nn.make_fc(rng, d_in, d_out)
    r = rng.normal(size=(b, d_out))
    loss = _proj_loss(lambda: nn.fully_connected_forward(h, p)[0], r)
    _, tape = nn.fully_connected_forward(h, p)
    dh, grads = nn.fully_connected_backward(r, tape)
    return max(rel_err(dh, fd_grad(loss, h)),
               rel_err(grads["weights"], fd_grad(loss, p.weights)),
               rel_err(grads["bias"], fd_grad(loss, p.bias)))


def _check_softmax_ce(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 6))
    classes = int(rng.integers(2, 6))
    logits = rng.normal(size=(b, classes))
    labels = np.zeros((b, classes))
    labels[np.arange(b), rng.integers(0, classes, size=b)] = 1.0

    def loss():
        return nn.softmax_cross_entropy(logits, labels)[0]

    _, _, tape = nn.softmax_cross_entropy(logits, labels)
    dlogits = nn.softmax_cross_entropy_backward(tape)
    return rel_err(dlogits, fd_grad(loss, logits))


def _check_fusion(seed, kind):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 5))
    width = int(rng.integers(1, 6))
    a = rng.normal(size=(b, width))
    g = rng.normal(size=(b, width))
    fused_w = fuse(a, g, kind).shape[1]
    r = rng.normal(size=(b, fused_w))
    loss = _proj_loss(lambda: fuse(a, g, kind), r)
    da, dg = fuse_backward(r, a, g, kind)
    return max(rel_err(da, fd_grad(loss, a)),
               rel_err(dg, fd_grad(loss, g)))


def test_acceptance_01_gradient_correctness():
    t0 = time.perf_counter()
    checks = {
        "graph_conv": _check_graph_conv,
        "conv2d": _check_conv2d,
        "maxpool": _check_maxpool,
        "batch_norm": _check_batch_norm,
        "fc": _check_fc,
        "softmax_ce": _check_softmax_ce,
        "fusion_additive": lambda s: _check_fusion(s, "additive"),
        "fusion_multiplicative": lambda s: _check_fusion(
            s, "multiplicative"),
        "fusion_concatenation": lambda s: _check_fusion(s,
                                                        "concatenation"),
    }
    worst = {name: max(fn(seed) for seed in range(100))
             for name, fn in checks.items()}
    full = {arch: full_model_gradcheck(arch)
            for arch in ("gcn", "minigcn", "cnn2d", "funet-a", "funet-m",
                         "funet-c")}
    elapsed = time.perf_counter() - t0
    worst_layer = max(worst.values())
    worst_full = max(full.values())
    ok = worst_layer <= 1e-4 and worst_full <= 1e-4 and elapsed < 60.0
    _verdict(1, ok,
             f"finite-difference gradients: worst layer rel err "
             f"{worst_layer:.2e} over 100 configs x {len(checks)} kinds, "
             f"worst full-model {worst_full:.2e}, {elapsed:.1f}s")
    assert worst_layer <= 1e-4, worst
    assert worst_full <= 1e-4, full
    assert elapsed < 60.0


# ------------------------------------------ 2: tied two-term filter identity

def test_acceptance_02_tied_filter_equals_first_order():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        g, _ = random_graph(rng, n, d=3)
        f = rng.normal(size=n)
        theta = float(rng.normal())
        scaled = chebyshev_scaled(sym_normalized_laplacian(g))
        lhs = chebyshev_filter(f, first_order_as_chebyshev(theta), scaled)
        rhs = first_order_filter(f, theta, g)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-10
    _verdict(2, ok,
             f"tied (theta, -theta) polynomial filter matches the "
             f"single-parameter filter: max abs diff {worst:.2e} on 50 "
             f"graphs")
    assert ok


# ------------------------------------------------ 3: exact spectral filtering

def test_acceptance_03_eigenbasis_filter_matches_polynomial_of_operator():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        g, _ = random_graph(rng, n, d=3)
        lap = laplacian(g)
        coeffs = rng.normal(size=int(rng.integers(1, 6)))  # degree <= 4
        f = rng.normal(size=n)
        eig = symmetric_eigendecomposition(lap)
        theta = np.polyval(coeffs, eig.values)
        lhs = spectral_filter(f, theta, lap)
        rhs = coeffs[0] * f
        for c in coeffs[1:]:
            rhs = lap.matmul(rhs) + c * f
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-8
    _verdict(3, ok,
             f"eigenbasis filtering equals the polynomial applied to the "
             f"operator: max abs diff {worst:.2e}, degree <= 4")
    assert ok


# --------------------------------------------- 4: full-budget batch identity

def test_acceptance_04_full_budget_batch_matches_full_graph_forward():
    rng = np.random.default_rng(0)
    n, bands, classes = 32, 8, 3
    g, feats = random_graph(rng, n, d=bands, k=4)
    cfg = ModelConfig(architecture="minigcn", input_bands=bands,
                      classes=classes, gcn_hidden=8, fusion_fc=8)
    mdl = build(cfg, seed=1)
    full_batch = induce_subgraph(g, (np.arange(n),))
    logits_full, _ = forward(mdl, feats, full_batch.prop_s, None)

    batches = partition_epoch(n, n, seed=5)
    assert len(batches) == 1
    ids = batches[0]
    sub = induce_subgraph(g, (ids,))
    logits_sub, _ = forward(mdl, feats[ids], sub.prop_s, None)
    unpermuted = np.empty_like(logits_sub)
    unpermuted[ids] = logits_sub
    diff = float(np.max(np.abs(unpermuted - logits_full)))
    ok = diff <= 1e-12
    _verdict(4, ok,
             f"budget = graph order reproduces the full-graph forward "
             f"after un-permuting: max abs diff {diff:.2e}")
    assert ok


# ----------------------------------------------------- 5: sampler statistics

def _two_batch_enumeration(g, z):
    """Exact per-vertex estimator expectations over all (2,1) partitions."""
    n = 3
    prop = renormalized_propagation(g.adjacency).to_dense()
    perms = list(itertools.permutations(range(n)))
    e_exact = np.eye(n)
    for p in perms:
        u, v = p[0], p[1]
        e_exact[u, v] += 1.0 / len(perms)
        e_exact[v, u] += 1.0 / len(perms)
    expect = {"uniform": np.zeros(n), "frequency": np.zeros(n)}
    for p in perms:
        for s in (np.array(sorted(p[:2])), np.array([p[2]])):
            sub = prop[np.ix_(s, s)]
            zs = z[s]
            expect["uniform"][s] += (sub.T @ zs) / len(perms)
            corrected = (sub / e_exact[np.ix_(s, s)]).T @ zs
            expect["frequency"][s] += corrected / len(perms)
    return expect, prop @ z


def test_acceptance_05_monte_carlo_estimator_matches_enumeration():
    trials = 100_000
    scenes = {
        "triangle": np.zeros((3, 1)),
        "path": np.array([[0.0], [1.0], [2.0]]),
    }
    z = np.array([0.3, -1.1, 2.4])
    report_lines = []
    ok = True
    for name, feats in scenes.items():
        k = 2 if name == "triangle" else 1
        g = build_knn_rbf_graph(feats, k, 1.0)
        dense = renormalized_propagation(g.adjacency).to_dense()
        assert (dense[0, 2] > 0) == (name == "triangle")
        expect, target = _two_batch_enumeration(g, z)
        diag = estimator_bias_diagnostic(
            g, 2, trials, seed=17, features=z.reshape(-1, 1),
            weight=np.array([[1.0]]),
        )
        for mode in ("uniform", "frequency"):
            stats = diag.modes[mode]
            dev = np.abs(stats.mc_mean - expect[mode])
            if np.any(dev > 4.0 * stats.stderr):
                ok = False
        u = diag.modes["uniform"]
        enum_bias = expect["uniform"] - target
        report_lines.append(
            f"{name}: uniform-mode bias measured "
            f"{np.array2string(u.bias, precision=4)} vs enumerated "
            f"{np.array2string(enum_bias, precision=4)}; frequency-mode "
            f"max |bias| {np.max(np.abs(diag.modes['frequency'].bias)):.1e}"
        )
        # the plain-average mode is genuinely biased on both scenes
        if np.max(np.abs(enum_bias)) <= 1e-6:
            ok = False
    _verdict(5, ok,
             f"{trials} trials within 4 standard errors of exhaustive "
             "enumeration on both 3-vertex scenes, both weighting modes")
    for line in report_lines:
        print("  " + line)
    assert ok


# ------------------------------------------------- 6: reported-table metrics

def test_acceptance_06_reference_table_reproduction():
    results = {}
    for method, aa_want, oa_want in (("minigcn", 78.03, 75.11),
                                     ("funet-c", 89.35, 79.89)):
        cm = cm_from_recalls(REFERENCE_PER_CLASS[method],
                             REFERENCE_TEST_COUNTS)
        results[method] = (average_accuracy(cm), aa_want,
                           overall_accuracy(cm), oa_want)
    ok = all(abs(aa - aw) <= 0.01 and abs(oa - ow) <= 0.1
             for aa, aw, oa, ow in results.values())
    detail = "; ".join(
        f"{m}: AA {aa:.2f} (want {aw}), OA {oa:.2f} (want {ow})"
        for m, (aa, aw, oa, ow) in results.items()
    )
    _verdict(6, ok, f"reference per-class columns reproduce the summary "
                    f"rows: {detail}")
    assert ok


# ------------------------------------------------------ 7: desk-scale scenes

@pytest.fixture(scope="module")
def desk_scene():
    cube, grid, split = synth_scene(classes=3, size=32, bands=16,
                                    noise_sigma=0.02, seed=7,
                                    train_per_class=50)
    return dataset_from_parts(cube, grid, split)


def _desk_train(ds, arch, epochs, seed=0):
    cfg = infer_model_config(ds, arch)
    result = train_model(ds, cfg, epochs=epochs, batch=32, base_lr=0.01,
                         l2=0.001, bn_momentum=0.9, seed=seed)
    cm = evaluate_part(result.model, ds, "test", batch=32)
    return result, overall_accuracy(cm)


def test_acceptance_07_desk_scale_end_to_end(desk_scene):
    t0 = time.perf_counter()
    _, mini_oa = _desk_train(desk_scene, "minigcn", epochs=50)
    mini_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, funet_oa = _desk_train(desk_scene, "funet-c", epochs=50)
    funet_t = time.perf_counter() - t0
    ok = mini_oa >= 95.0 and mini_t < 60.0 \
        and funet_oa >= mini_oa - 1.0 and funet_t < 120.0
    _verdict(7, ok,
             f"synthetic scene: minigcn OA {mini_oa:.2f} in {mini_t:.1f}s "
             f"(needs >= 95 in < 60s); funet-c OA {funet_oa:.2f} in "
             f"{funet_t:.1f}s (needs >= minigcn - 1 in < 120s)")
    assert ok


# -------------------------------------------------------- 8: scaling slopes

def test_acceptance_08_benchmark_slopes():
    t0 = time.perf_counter()
    full = run_scaling("full-gcn", repeats=5, seed=0)
    mini = run_scaling("minigcn", m=32, repeats=5, seed=0)
    elapsed = time.perf_counter() - t0
    dense_slope = full.slopes["full-gcn"]
    mini_slope = mini.slopes["minigcn"]
    ok = dense_slope >= 1.6 and mini_slope <= 1.3 and elapsed < 300.0
    _verdict(8, ok,
             f"log-log timing slopes on the default grid: whole-graph "
             f"dense {dense_slope:.2f} (needs >= 1.6), budgeted "
             f"{mini_slope:.2f} (needs <= 1.3), {elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------- 9: determinism

def test_acceptance_09_seeded_runs_are_byte_identical(desk_scene, tmp_path):
    cfg = infer_model_config(desk_scene, "minigcn", gcn_hidden=16)
    runs = []
    for tag in ("a", "b"):
        result = train_model(desk_scene, cfg, epochs=5, batch=32,
                             base_lr=0.01, l2=0.001, bn_momentum=0.9,
                             seed=123)
        path = str(tmp_path / f"{tag}.mgkp")
        save_model(path, result.model)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path + ".json", "rb") as fh:
            sidecar = fh.read()
        runs.append((blob, sidecar, format_log_rows(result.log_rows)))
    ok = runs[0] == runs[1]
    _verdict(9, ok, "two identical seeded runs: byte-identical checkpoint "
                    "and training log")
    assert ok


# ------------------------------------------- 10: optional full-scale dataset

@pytest.mark.skipif(INDIAN_PINES_ENV not in os.environ,
                    reason=f"set {INDIAN_PINES_ENV} to a directory with "
                           "cube.hsc, labels.hsl and split.json to run the "
                           "full-scale reproduction")
def test_acceptance_10_real_dataset_stretch_target():
    root = os.environ[INDIAN_PINES_ENV]
    ds = load_dataset(os.path.join(root, "cube.hsc"),
                      os.path.join(root, "labels.hsl"),
                      os.path.join(root, "split.json"))
    cfg = infer_model_config(ds, "minigcn")
    result = train_model(ds, cfg, epochs=200, batch=32, base_lr=0.001,
                         l2=0.001, bn_momentum=0.9, seed=0)
    cm = evaluate_part(result.model, ds, "test", batch=32)
    oa = overall_accuracy(cm)
    ok = abs(oa - 75.11) <= 3.0
    _verdict(10, ok, f"user-supplied benchmark scene: minigcn OA {oa:.2f} "
                     f"(stretch target 75.11 +/- 3.0)")
    assert ok
