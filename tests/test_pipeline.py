import numpy as np
import pytest
from hypothesis import given, strategies as st

import mgk.pipeline
from mgk.data import LabelGrid, SplitSpec, synth_scene
from mgk.errors import ConfigError, ContractError, NumericError
from mgk.metrics import overall_accuracy
from mgk.model import build, save_model
from mgk.pipeline import (Dataset, dataset_from_parts, evaluate_part,
                          fold_singleton_tail, format_log_rows,
                          infer_model_config, predict_pixels, train_model)
from mgk.sampler import partition_epoch

TRAIN_KW = dict(epochs=3, batch=16, base_lr=0.01, l2=0.001, bn_momentum=0.9,
                seed=11, graph_k=5, graph_sigma=1.0)


@pytest.fixture(scope="module")
def small_ds():
    cube, grid, split = synth_scene(classes=3, size=12, bands=6,
                                    noise_sigma=0.02, seed=7,
                                    train_per_class=8)
    return dataset_from_parts(cube, grid, split)


def small_cfg(ds, arch="minigcn"):
    return infer_model_config(ds, arch, gcn_hidden=12, cnn_channels=(4, 6,
                                                                     12),
                              fusion_fc=8, patch_size=3)


def test_dataset_rejects_grid_cube_mismatch():
    cube, grid, split = synth_scene(classes=2, size=8, bands=4,
                                    noise_sigma=0.0, seed=1,
                                    train_per_class=5)
    bad = LabelGrid(labels=np.zeros((9, 8), dtype=np.int64))
    with pytest.raises(ConfigError, match="match"):
        dataset_from_parts(cube, bad, split)


def test_num_classes_comes_from_split(small_ds):
    assert small_ds.num_classes == 3


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
    train_cm = evaluate_part(result.model, small_ds, "train", batch=16,
                             graph_k=5, graph_sigma=1.0)
    test_cm = evaluate_part(result.model, small_ds, "test", batch=16,
                            graph_k=5, graph_sigma=1.0)
    assert overall_accuracy(train_cm) >= 95.0
    assert overall_accuracy(train_cm) >= overall_accuracy(test_cm) - 1e-9


def test_gcn_architecture_trains_full_batch(small_ds):
    cfg = small_cfg(small_ds, arch="gcn")
    result = train_model(small_ds, cfg, **{**TRAIN_KW, "batch": 5})
    # one full-coverage batch per epoch: the logged per-epoch loss must be
    # reproducible when the nominal batch size changes
    again = train_model(small_ds, cfg, **{**TRAIN_KW, "batch": 24})
    assert format_log_rows(result.log_rows) == format_log_rows(
        again.log_rows)
    assert result.graph is not None


def test_cnn2d_predictions_do_not_depend_on_chunking(small_ds):
    cfg = small_cfg(small_ds, arch="cnn2d")
    result = train_model(small_ds, cfg, **TRAIN_KW)
    ids, _ = small_ds.part_pixels("test")
    a = predict_pixels(result.model, small_ds.cube, ids, batch=7, graph_k=5,
                       graph_sigma=1.0)
    b = predict_pixels(result.model, small_ds.cube, ids, batch=ids.size,
                       graph_k=5, graph_sigma=1.0)
    assert np.array_equal(a, b)
    assert a.size == ids.size


def test_predict_pixels_handles_trailing_singleton_chunk(small_ds):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **TRAIN_KW)
    ids, _ = small_ds.part_pixels("test")
    take = ids[: (ids.size // 16) * 16 + 1]  # leaves a final chunk of one
    preds = predict_pixels(result.model, small_ds.cube, take, batch=16,
                           graph_k=5, graph_sigma=1.0)
    assert preds.size == take.size
    assert preds.min() >= 0 and preds.max() < 3


def test_evaluate_part_counts_every_pixel(small_ds):
    cfg = small_cfg(small_ds)
    result = train_model(small_ds, cfg, **TRAIN_KW)
    cm = evaluate_part(result.model, small_ds, "test", batch=16, graph_k=5,
                       graph_sigma=1.0)
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
    batches = partition_epoch(n, m, seed).batches
    folded = fold_singleton_tail(batches)
    assert all(b.size >= 2 for b in folded)
    assert np.array_equal(np.sort(np.concatenate(folded)), np.arange(n))
    if n % m != 1:
        assert folded is batches
    else:
        assert len(folded) == len(batches) - 1
        assert folded[-1].size == m + 1


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
