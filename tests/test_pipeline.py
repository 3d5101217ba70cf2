import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import mgk.graph
import mgk.model
import mgk.pipeline
import mgk.sampler
from mgk import nn
from mgk.data import (LabelGrid, SpectralCube, SplitSpec, extract_patches,
                      synth_scene)
from mgk.errors import ConfigError, ContractError, NumericError
from mgk.metrics import overall_accuracy
from mgk.graph import build_knn_rbf_graph, renormalized_propagation
from mgk.model import ARCHITECTURES, ModelConfig, build, save_model
from mgk.optim import AdamState
from mgk.pipeline import (Dataset, _RowTaps, chunk_prop, dataset_from_parts,
                          evaluate_part,
                          fold_singleton_tail, format_log_rows,
                          infer_model_config, predict_pixels, train_epoch,
                          train_model)
from mgk.sampler import partition_epoch
from test_model import randomize_batch_norms

TRAIN_KW = dict(epochs=3, batch=16, base_lr=0.01, l2=0.001, bn_momentum=0.9,
                seed=11)


@pytest.fixture(scope="module")
def small_ds():
    cube, grid, split = synth_scene(classes=3, size=12, bands=6,
                                    noise_sigma=0.02, seed=7,
                                    train_per_class=8)
    return dataset_from_parts(cube, grid, split)


def small_cfg(ds, arch="minigcn"):
    return infer_model_config(ds, arch, gcn_hidden=12, cnn_channels=(4, 6,
                                                                     12),
                              fusion_fc=8, patch_size=3, graph_k=5)


def test_dataset_rejects_grid_cube_mismatch():
    cube, grid, split = synth_scene(classes=2, size=8, bands=4,
                                    noise_sigma=0.0, seed=1,
                                    train_per_class=5)
    bad = LabelGrid(labels=np.zeros((9, 8), dtype=np.int64))
    with pytest.raises(ConfigError, match="match"):
        dataset_from_parts(cube, bad, split)


def test_num_classes_comes_from_split(small_ds):
    assert small_ds.num_classes == 3


def test_num_classes_reads_both_sections_together(small_ds):
    train, test = small_ds.split.train, small_ds.split.test
    assert {3} <= set(train) and {3} <= set(test)
    for split in (SplitSpec(train=train, test={}),
                  SplitSpec(train={}, test=test),
                  SplitSpec(train={c: train[c] for c in (1, 2)},
                            test={3: test[3]})):
        ds = Dataset(cube=small_ds.cube, grid=small_ds.grid, split=split)
        assert ds.num_classes == 3


def test_split_without_classes_is_rejected(small_ds):
    ds = Dataset(cube=small_ds.cube, grid=small_ds.grid,
                 split=SplitSpec(train={}, test={}))
    with pytest.raises(ContractError, match="no classes"):
        ds.num_classes


def test_part_pixels_sorted_and_zero_based(small_ds):
    ids, classes = small_ds.part_pixels("train")
    assert ids.size == 24
    assert np.all(np.diff(ids) > 0)
    assert set(np.unique(classes)) == {0, 1, 2}
    flat = small_ds.grid.labels.reshape(-1)
    assert np.array_equal(flat[ids], classes + 1)


def test_epochs_zero_returns_untouched_init(small_ds, tmp_path):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **{**TRAIN_KW, "epochs": 0})
    assert result.log_rows == []
    fresh = build(cfg, seed=np.random.SeedSequence(TRAIN_KW["seed"])
                  .spawn(1)[0])
    save_model(tmp_path / "trained.mgkp", result.model)
    save_model(tmp_path / "fresh.mgkp", fresh)
    assert (tmp_path / "trained.mgkp").read_bytes() \
        == (tmp_path / "fresh.mgkp").read_bytes()


def test_same_seed_training_is_bitwise_reproducible(small_ds, tmp_path):
    cfg = small_cfg(small_ds)
    a = train_model(small_ds, cfg, **TRAIN_KW)
    b = train_model(small_ds, cfg, **TRAIN_KW)
    save_model(tmp_path / "a.mgkp", a.model)
    save_model(tmp_path / "b.mgkp", b.model)
    assert (tmp_path / "a.mgkp").read_bytes() \
        == (tmp_path / "b.mgkp").read_bytes()
    assert format_log_rows(a.log_rows) == format_log_rows(b.log_rows)


def test_different_seed_changes_weights(small_ds):
    cfg = small_cfg(small_ds)
    a = train_model(small_ds, cfg, **TRAIN_KW)
    b = train_model(small_ds, cfg, **{**TRAIN_KW, "seed": 12})
    assert not np.array_equal(a.model.layers["head.fc2"].weights,
                              b.model.layers["head.fc2"].weights)


def test_training_converges_and_train_oa_at_least_test_oa(small_ds):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **{**TRAIN_KW, "epochs": 12})
    train_cm = evaluate_part(result.model, small_ds, "train", batch=16)
    test_cm = evaluate_part(result.model, small_ds, "test", batch=16)
    assert overall_accuracy(train_cm) >= 95.0
    assert overall_accuracy(train_cm) >= overall_accuracy(test_cm) - 1e-9


def test_minigcn_training_builds_only_the_batch_operators(small_ds):
    # the whole training graph's operator is never built: one operator per
    # epoch, on the adjacency its batches induce, block-diagonal by batch
    renorm = mgk.graph.renormalized_propagation
    induce = mgk.pipeline.induce_subgraph
    step = mgk.pipeline.loss_and_grads
    built, induced, steps = [], [], []

    def spy_renorm(adj):
        built.append(adj.to_dense())
        return renorm(adj)

    def spy_induce(g, batches):
        dense = g.adjacency.to_dense()
        induced.append([dense[np.ix_(ids, ids)] for ids in batches])
        return induce(g, batches)

    def counted_step(*args, **kwargs):
        steps.append(len(built))
        return step(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for module in (mgk.graph, mgk.sampler, mgk.pipeline):
            mp.setattr(module, "renormalized_propagation", spy_renorm)
        mp.setattr(mgk.pipeline, "induce_subgraph", spy_induce)
        mp.setattr(mgk.pipeline, "loss_and_grads", counted_step)
        train_model(small_ds, small_cfg(small_ds), **TRAIN_KW)
    # 24 train pixels at batch 16: two steps per epoch, one build before them
    epochs = TRAIN_KW["epochs"]
    assert steps == [1 + i // 2 for i in range(2 * epochs)]
    assert len(built) == len(induced) == epochs
    for got, wants in zip(built, induced):
        assert got.shape == (24, 24)
        assert [w.shape[0] for w in wants] == [16, 8]
        joins = np.ones_like(got, dtype=bool)
        start = 0
        for want in wants:
            block = slice(start, start + want.shape[0])
            assert np.array_equal(got[block, block], want)
            joins[block, block] = False
            start = block.stop
        assert not got[joins].any()


def test_train_model_runs_one_train_epoch_per_epoch(small_ds, monkeypatch):
    # the graph is built before the first epoch, and each epoch is one
    # train_epoch call on it, whose loss sum over the 24 train pixels gives
    # the logged loss
    real_graph = mgk.pipeline.build_knn_rbf_graph
    real_epoch = mgk.pipeline.train_epoch
    graphs, calls = [], []

    def spy_graph(*args):
        graphs.append(real_graph(*args))
        return graphs[-1]

    def spy_epoch(*args, **kwargs):
        loss_sum, preds = real_epoch(*args, **kwargs)
        graph, budget, lr = args[2], args[6], args[8]
        calls.append((len(graphs), graph, budget, lr, loss_sum))
        return loss_sum, preds

    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", spy_graph)
    monkeypatch.setattr(mgk.pipeline, "train_epoch", spy_epoch)
    result = train_model(small_ds, small_cfg(small_ds), **TRAIN_KW)
    assert len(calls) == len(result.log_rows) == TRAIN_KW["epochs"]
    for (built, graph, budget, lr, loss_sum), (_, logged_lr, loss, _) \
            in zip(calls, result.log_rows):
        assert (built, budget, lr) == (1, 16, logged_lr)
        assert graph is graphs[0]
        assert loss == loss_sum / 24


def test_full_batch_gcn_epoch_peaks_below_nine_activations():
    # backward frees each layer's tapes once it has read them, so one
    # full-graph step holds fewer than 9 activations of n x gcn_hidden
    # float64 at its peak (8.55 measured)
    n, bands, hidden, classes = 1024, 64, 128, 8
    rng = np.random.default_rng(29)
    feats = rng.normal(size=(n, bands))
    graph = build_knn_rbf_graph(feats, 10, 1.0)
    labels_hot = np.eye(classes)[rng.integers(0, classes, size=n)]
    mdl = build(ModelConfig("gcn", input_bands=bands, classes=classes,
                            gcn_hidden=hidden), seed=3)
    state = AdamState()
    tracemalloc.start()
    try:
        train_epoch(mdl, state, graph, feats, labels_hot, None, n, 5, 0.01,
                    l2=0.001, bn_momentum=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * n * hidden * 8


def test_gcn_architecture_trains_full_batch(small_ds):
    cfg = small_cfg(small_ds, arch="gcn")
    result = train_model(small_ds, cfg, **{**TRAIN_KW, "batch": 5})
    # one full-coverage batch per epoch: the logged per-epoch loss must be
    # reproducible when the nominal batch size changes
    again = train_model(small_ds, cfg, **{**TRAIN_KW, "batch": 24})
    assert format_log_rows(result.log_rows) == format_log_rows(
        again.log_rows)


def test_cnn2d_predictions_do_not_depend_on_chunking(small_ds):
    cfg = small_cfg(small_ds, arch="cnn2d")
    result = train_model(small_ds, cfg, **TRAIN_KW)
    ids, _ = small_ds.part_pixels("test")
    a = predict_pixels(result.model, small_ds.cube, ids, batch=7)
    b = predict_pixels(result.model, small_ds.cube, ids, batch=ids.size)
    assert np.array_equal(a, b)
    assert a.size == ids.size


def test_predict_pixels_handles_trailing_singleton_chunk(small_ds):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **TRAIN_KW)
    ids, _ = small_ds.part_pixels("test")
    take = ids[: (ids.size // 16) * 16 + 1]  # leaves a final chunk of one
    preds = predict_pixels(result.model, small_ds.cube, take, batch=16)
    assert preds.size == take.size
    assert preds.min() >= 0 and preds.max() < 3


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_predict_pixels_writes_into_none_of_its_inputs(small_ds, arch):
    mdl = build(small_cfg(small_ds, arch), seed=3)
    randomize_batch_norms(mdl, np.random.default_rng(4))
    cube = small_ds.cube.values
    before = cube.copy()
    ids = np.arange(cube.shape[0] * cube.shape[1])[::-1].copy()
    ids_before = ids.copy()
    for batch in (1, 10):
        predict_pixels(mdl, small_ds.cube, ids, batch=batch)
    assert np.array_equal(cube.view(np.uint32), before.view(np.uint32))
    assert np.array_equal(ids, ids_before)


@pytest.fixture(scope="module")
def map_ds():
    # more than two groups of PREDICT_GROUP_ROWS pixels
    cube, grid, split = synth_scene(classes=3, size=46, bands=6,
                                    noise_sigma=0.02, seed=7,
                                    train_per_class=8)
    return dataset_from_parts(cube, grid, split)


def _logged_prediction(mdl, cube, ids, batch):
    """Predictions, the logits of every forward in call order, and the
    number of predict calls."""
    logits, calls = [], []
    forward, predict = mgk.model.forward, mgk.pipeline.predict

    def logged_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out[0])
        return out

    def counted_predict(*args, **kwargs):
        calls.append(args)
        return predict(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.model, "forward", logged_forward)
        mp.setattr(mgk.pipeline, "predict", counted_predict)
        preds = predict_pixels(mdl, cube, ids, batch=batch)
    return preds, np.concatenate(logits), len(calls)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_grouped_inference_matches_one_chunk_groups(map_ds, arch):
    mdl = train_model(map_ds, small_cfg(map_ds, arch),
                      **{**TRAIN_KW, "epochs": 1}).model
    full = 2048  # two groups at every batch below
    for batch in (16, 32, 1024):
        for tail in (1, 2, mdl.cfg.graph_k):
            ids = np.arange(full + tail)
            preds, logits, calls = _logged_prediction(mdl, map_ds.cube,
                                                      ids, batch)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mgk.pipeline, "PREDICT_GROUP_ROWS", 1)
                want_preds, want_logits, chunks = _logged_prediction(
                    mdl, map_ds.cube, ids, batch)
            assert np.array_equal(preds, want_preds)
            assert np.array_equal(logits.view(np.uint64),
                                  want_logits.view(np.uint64))
            assert chunks == full // batch + 1
            # a graph-only model: one call per group plus one for the tail
            assert calls == (chunks if mdl.cfg.uses_patches else 3)


@pytest.mark.parametrize("arch", ["gcn", "minigcn"])
def test_one_pixel_chunks_stay_one_per_forward(map_ds, arch):
    # a one-row forward multiplies a vector, whose sums may differ in the
    # last bit from the same row's in a matrix product
    mdl = train_model(map_ds, small_cfg(map_ds, arch),
                      **{**TRAIN_KW, "epochs": 1}).model
    ids = np.arange(300)
    preds, logits, calls = _logged_prediction(mdl, map_ds.cube, ids, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.pipeline, "PREDICT_GROUP_ROWS", 1)
        want_preds, want_logits, _ = _logged_prediction(mdl, map_ds.cube,
                                                        ids, 1)
    assert np.array_equal(logits.view(np.uint64),
                          want_logits.view(np.uint64))
    assert np.array_equal(preds, want_preds)
    assert calls == ids.size


def test_grouped_inference_peaks_no_higher_than_one_wide_chunk(map_ds):
    mdl = train_model(map_ds, small_cfg(map_ds),
                      **{**TRAIN_KW, "epochs": 1}).model
    ids = np.arange(2048)
    peaks = []
    for batch in (32, 1024):
        tracemalloc.start()
        try:
            predict_pixels(mdl, map_ds.cube, ids, batch=batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def patch_model(rng, bands, size, c1):
    """A cnn2d model whose block-1 conv has random weights and bias."""
    mdl = build(ModelConfig("cnn2d", input_bands=bands, classes=2,
                            cnn_channels=(c1, 2, 2), fusion_fc=2,
                            patch_size=size), seed=rng.integers(2**32))
    mdl.layers["cnn.block1.conv"].bias = rng.normal(size=c1)
    return mdl


# The reference is the training path's block 1, the per-patch conv of
# extract_patches. The shared path sums the same products in another
# order, so each output must be within 1e-14 of the sum of its terms'
# magnitudes (the conv of |patches| by |W|, plus |bias|).
@seed(26)
@settings(max_examples=80, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4),
       st.sampled_from([1, 3, 5, 7, 9]), st.integers(1, 3),
       st.integers(1, 12), st.sampled_from(["rows", "shuffled", "sparse"]),
       st.integers(0, 2**32 - 1))
def test_shared_block1_matches_the_per_patch_conv(height, width, bands, size,
                                                 c1, batch, order, seed_):
    rng = np.random.default_rng(seed_)
    cube = SpectralCube(rng.random((height, width, bands), dtype=np.float32))
    mdl = patch_model(rng, bands, size, c1)
    conv = mdl.layers["cnn.block1.conv"]
    magnitude = nn.LayerParams("conv2d", weights=np.abs(conv.weights),
                               bias=np.abs(conv.bias))
    n = height * width
    ids = {"rows": np.arange(n), "shuffled": rng.permutation(n),
           "sparse": rng.choice(n, rng.integers(1, n + 1), replace=False)
           }[order]
    taps = _RowTaps(mdl, cube)
    for start in range(0, ids.size, batch):
        chunk = ids[start:start + batch]
        shared = taps.patches(chunk)
        got = nn.conv2d_from_taps(shared.taps, shared.cells, conv)
        patches = extract_patches(cube, chunk, size)
        want, _ = nn.conv2d_forward(patches, conv)
        scale, _ = nn.conv2d_forward(np.abs(patches), magnitude)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_shared_block1_keeps_only_the_rows_a_group_reads():
    # a map of an image 8 times as tall peaks no higher: the tap products
    # of a 32-px-wide image at 32 channels are 72 KiB a row, 9 MiB for
    # the whole tall image, while one 32-px chunk's patches read 7 rows
    rng = np.random.default_rng(5)
    mdl = patch_model(rng, 8, 7, 32)
    randomize_batch_norms(mdl, rng)
    peaks = []
    for height in (16, 128):
        cube = SpectralCube(rng.random((height, 32, 8), dtype=np.float32))
        ids = np.arange(height * 32)
        tracemalloc.start()
        try:
            predict_pixels(mdl, cube, ids, batch=32)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_chunk_prop_clamps_k_and_gives_singletons_the_identity():
    feats = np.random.default_rng(3).random((3, 4, 2))
    got = chunk_prop(feats, 10, 1.0)
    want = renormalized_propagation(
        build_knn_rbf_graph(feats, 3, 1.0).adjacency)
    for field in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    one = chunk_prop(feats[:, :1], 5, 1.0)
    assert np.array_equal(one.to_dense(), np.eye(3))


def test_evaluate_part_counts_every_pixel(small_ds):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **TRAIN_KW)
    cm = evaluate_part(result.model, small_ds, "test", batch=16)
    ids, _ = small_ds.part_pixels("test")
    assert cm.total == ids.size


def test_non_finite_loss_error_names_the_epoch(small_ds):
    # an overflowing penalty coefficient forces loss = inf on batch one
    cfg = small_cfg(small_ds)
    with pytest.raises(NumericError, match="epoch 0"):
        train_model(small_ds, cfg, **{**TRAIN_KW, "l2": 1e308})


def test_infer_model_config_fills_from_dataset(small_ds):
    cfg = infer_model_config(small_ds, "gcn")
    assert cfg.input_bands == small_ds.cube.bands == 6
    assert cfg.classes == 3
    explicit = infer_model_config(small_ds, "gcn", input_bands=9, classes=5)
    assert explicit.input_bands == 9 and explicit.classes == 5


def test_format_log_rows_round_trips():
    rows = [(0, 0.001, 1.23456789012345, 50.0),
            (1, 0.0005, 0.9, 87.5)]
    text = format_log_rows(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,lr,loss,train_oa"
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert float(cells[2]) == row[2]
        assert float(cells[3]) == row[3]


@pytest.mark.parametrize("arch", ["minigcn", "cnn2d"])
def test_trains_when_the_last_batch_would_hold_one_node(arch):
    cube, grid, split = synth_scene(classes=3, size=12, bands=6,
                                    noise_sigma=0.02, seed=7,
                                    train_per_class=11)
    ds = dataset_from_parts(cube, grid, split)
    assert ds.part_pixels("train")[0].size == 33
    result = train_model(ds, small_cfg(ds, arch),
                         **{**TRAIN_KW, "epochs": 1, "batch": 32})
    assert len(result.log_rows) == 1
    assert np.isfinite(result.log_rows[0][2])


@given(st.integers(2, 300).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(2, n))),
       st.integers(0, 2**32 - 1))
def test_folded_batches_hold_at_least_two_nodes(nm, seed):
    n, m = nm
    batches = partition_epoch(n, m, seed)
    folded = fold_singleton_tail(batches)
    assert all(b.size >= 2 for b in folded)
    assert np.array_equal(np.sort(np.concatenate(folded)), np.arange(n))
    if n % m != 1:
        assert folded is batches
    else:
        assert len(folded) == len(batches) - 1
        assert folded[-1].size == m + 1


def test_patch_tensor_above_its_byte_limit_fails_before_any_work(
        small_ds, monkeypatch):
    class Started(Exception):
        pass

    def sentinel(*args, **kwargs):
        raise Started

    monkeypatch.setattr(mgk.pipeline, "extract_patches", sentinel)
    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", sentinel)
    # 24 train pixels of 6 bands: a 5 x 5 patch tensor is 28800 bytes
    monkeypatch.setattr(mgk.pipeline, "PATCH_BYTES_MAX", 28800)
    for arch in ("cnn2d", "funet-c"):
        cfg = small_cfg(small_ds, arch)
        with pytest.raises(Started):
            train_model(small_ds, dataclasses.replace(cfg, patch_size=5),
                        **TRAIN_KW)
        with pytest.raises(ContractError, match=(
                r"^model.patch_size=7 needs 56448 bytes of patches for the "
                r"24 train pixels; the limit is 28800$")):
            train_model(small_ds, dataclasses.replace(cfg, patch_size=7),
                        **TRAIN_KW)
    minigcn = dataclasses.replace(small_cfg(small_ds), patch_size=7)
    with pytest.raises(Started):  # a graph-only model reads no patches
        train_model(small_ds, minigcn, **TRAIN_KW)


def test_node_budget_below_two_fails_before_any_work(small_ds, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", no_work)
    monkeypatch.setattr(mgk.pipeline, "extract_patches", no_work)
    one = Dataset(cube=small_ds.cube, grid=small_ds.grid,
                  split=SplitSpec(train={1: small_ds.split.train[1][:1]},
                                  test=small_ds.split.test))
    for arch in ("minigcn", "cnn2d", "gcn"):
        with pytest.raises(ContractError, match="got 1 train pixels"):
            train_model(one, small_cfg(small_ds, arch), **TRAIN_KW)
    with pytest.raises(ContractError, match="at batch 1$"):
        train_model(small_ds, small_cfg(small_ds),
                    **{**TRAIN_KW, "batch": 1})
