import csv
import dataclasses
import gc
import inspect
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import mgk.bench
import mgk.cli
import mgk.data
import mgk.pipeline
from mgk.cli import (PALETTE, RunConfig, SEED_ENV_VAR, class_map_rgb,
                     load_run_config, main, parse_overrides, run,
                     write_legend, write_ppm)
from mgk.data import LabelGrid, load_labels, save_labels
from mgk.errors import ConfigError, ContractError
from mgk.model import ModelConfig, build, load_model, save_model
from mgk.pipeline import load_dataset

FAST_MODEL = ["--model.gcn_hidden=12", "--model.patch_size=3",
              "--model.cnn_channels=4,6,12", "--model.fusion_fc=8"]
FAST_TRAIN = ["--train.epochs=6", "--train.batch=16", "--train.base_lr=0.01",
              "--graph.k=5"]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    saved = os.environ.pop(SEED_ENV_VAR, None)
    out = tmp_path_factory.mktemp("scene")
    code = main(["synth", "--out-dir", str(out), "--size", "12", "--bands",
                 "6", "--classes", "3", "--train-per-class", "8", "--seed",
                 "7"])
    assert code == 0
    if saved is not None:
        os.environ[SEED_ENV_VAR] = saved
    return out


def data_flags(scene):
    return [f"--paths.cube={scene / 'cube.hsc'}",
            f"--paths.labels={scene / 'labels.hsl'}",
            f"--paths.split={scene / 'split.json'}"]


@pytest.fixture(scope="module")
def trained(scene_dir, tmp_path_factory):
    saved = os.environ.pop(SEED_ENV_VAR, None)
    out = tmp_path_factory.mktemp("run")
    ckpt = out / "model.mgkp"
    code = main(["train", *data_flags(scene_dir),
                 f"--paths.checkpoint={ckpt}", f"--paths.output={out}",
                 *FAST_MODEL, *FAST_TRAIN, "--train.seed=11"])
    assert code == 0
    if saved is not None:
        os.environ[SEED_ENV_VAR] = saved
    return out, ckpt


def test_defaults_match_training_protocol():
    cfg = RunConfig()
    assert cfg.train.epochs == 200
    assert cfg.train.batch == 32
    assert cfg.train.base_lr == 0.001
    assert cfg.train.l2 == 0.001
    assert cfg.train.bn_momentum == 0.9
    assert cfg.graph.k == 10
    assert cfg.graph.sigma == 1.0
    assert cfg.model.architecture == "minigcn"
    assert cfg.model.patch_size == 7


def test_config_precedence_flags_beat_file(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 5, "batch": 8},
                                "graph": {"k": 4}}))
    cfg = load_run_config(str(path), {"train.epochs": "7"})
    assert cfg.train.epochs == 7   # flag wins
    assert cfg.train.batch == 8    # file beats default
    assert cfg.graph.k == 4
    assert cfg.train.base_lr == 0.001  # untouched default


def test_env_seed_beats_file_and_flags(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"seed": 3}}))
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    cfg = load_run_config(str(path), {"train.seed": "9"})
    assert cfg.train.seed == 42
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        load_run_config(str(path), {})


def test_parse_overrides_accepts_both_spellings():
    out = parse_overrides(["--train.epochs=3", "--graph.sigma", "0.5"])
    assert out == {"train.epochs": "3", "graph.sigma": "0.5"}
    with pytest.raises(ConfigError, match="missing a value"):
        parse_overrides(["--train.epochs"])
    with pytest.raises(ConfigError, match="unrecognized"):
        parse_overrides(["train.epochs=3"])
    with pytest.raises(ConfigError, match="unrecognized"):
        parse_overrides(["--epochs=3"])


def test_override_validation(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    with pytest.raises(ConfigError, match="turbo"):
        load_run_config(None, {"train.turbo": "1"})
    with pytest.raises(ConfigError, match="warp"):
        load_run_config(None, {"warp.speed": "9"})
    with pytest.raises(ConfigError, match="int"):
        load_run_config(None, {"train.epochs": "many"})
    cfg = load_run_config(None, {"model.cnn_channels": "4,6,12"})
    assert cfg.model.cnn_channels == (4, 6, 12)


def test_bad_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff{}")
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config file is not valid JSON: ")


def test_undecodable_split_exits_2(scene_dir, tmp_path, capsys,
                                   monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    split = tmp_path / "split.json"
    split.write_bytes(b"\xff{}")
    assert main(["train", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.labels={scene_dir / 'labels.hsl'}",
                 f"--paths.split={split}",
                 f"--paths.checkpoint={tmp_path / 'm.mgkp'}"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: split file is not valid JSON: ")


def test_missing_input_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["train", "--paths.cube=/nonexistent/cube.hsc",
                 "--paths.labels=/nonexistent/l.hsl",
                 "--paths.split=/nonexistent/s.json",
                 f"--paths.checkpoint={tmp_path / 'm.mgkp'}"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_error_exits_1(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["train", "--train.epochs=abc"]) == 1
    assert main(["train"]) == 1  # checkpoint path missing
    capsys.readouterr()


def test_config_file_and_flags_parse_alike(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"cnn_channels": [4, 6, 12]},
                                "train": {"epochs": 7, "base_lr": 1},
                                "graph": {"sigma": 0.5}}))
    flags = {"model.cnn_channels": "4,6,12", "train.epochs": "7",
             "train.base_lr": "1", "graph.sigma": "0.5"}
    assert load_run_config(str(path), {}) == load_run_config(None, flags)


@pytest.mark.parametrize("doc, key, shown", [
    ({"train": {"epochs": "ten"}}, "train.epochs", "'ten'"),
    ({"train": {"epochs": True}}, "train.epochs", "True"),
    ({"model": {"cnn_channels": 5}}, "model.cnn_channels", "5"),
    ({"paths": {"output": 5}}, "paths.output", "5"),
])
def test_config_file_value_of_the_wrong_type_exits_1(scene_dir, tmp_path,
                                                     capsys, monkeypatch,
                                                     doc, key, shown):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", "--config", str(path), *data_flags(scene_dir),
                 f"--paths.checkpoint={ckpt}", *FAST_MODEL,
                 *FAST_TRAIN]) == 1
    assert f"error: {key}: cannot parse {shown} as " in \
        capsys.readouterr().err
    assert not ckpt.exists()


def split_flags(scene, tmp_path, train, test):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": train, "test": test}))
    return [f"--paths.cube={scene / 'cube.hsc'}",
            f"--paths.labels={scene / 'labels.hsl'}",
            f"--paths.split={split}",
            f"--paths.checkpoint={tmp_path / 'm.mgkp'}"]


def test_train_only_split_trains(scene_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    train = json.loads((scene_dir / "split.json").read_text())["train"]
    assert main(["train", *split_flags(scene_dir, tmp_path, train, {}),
                 *FAST_MODEL, *FAST_TRAIN, "--train.epochs=2"]) == 0
    capsys.readouterr()
    assert load_model(tmp_path / "m.mgkp").cfg.classes == 3


def test_split_without_classes_exits_1(scene_dir, tmp_path, capsys,
                                       monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["train", *split_flags(scene_dir, tmp_path, {}, {}),
                 *FAST_MODEL, *FAST_TRAIN]) == 1
    assert "the split has no classes" in capsys.readouterr().err
    assert not (tmp_path / "m.mgkp").exists()


@pytest.mark.parametrize("flag, message", [
    ("--train.epochs=-1", "epochs must be >= 0, got -1"),
    ("--train.bn_momentum=nan", "bn_momentum must be in [0, 1], got nan"),
    ("--train.bn_momentum=inf", "bn_momentum must be in [0, 1], got inf"),
    ("--train.bn_momentum=1.5", "bn_momentum must be in [0, 1], got 1.5"),
    ("--train.bn_momentum=-0.1", "bn_momentum must be in [0, 1], got -0.1"),
    ("--train.l2=-0.001", "l2 must be >= 0, got -0.001"),
    ("--train.l2=nan", "l2 must be >= 0, got nan"),
    ("--train.l2=inf", "l2 must be finite, got inf"),
    ("--train.base_lr=0", "base_lr must be positive and finite, got 0.0"),
    ("--train.base_lr=inf", "base_lr must be positive and finite, got inf"),
    ("--train.base_lr=nan", "base_lr must be positive and finite, got nan"),
    ("--train.epochs=0 --train.base_lr=-1",
     "base_lr must be positive and finite, got -1.0"),
    ("--model.cnn_channels=8,16,32", "funet-a needs matching branch widths; "
     "spatial branch emits 32, spectral emits 12"),
    ("--graph.k=0", "graph_k must be >= 1"),
    ("--graph.sigma=0", "graph_sigma must be positive and finite, got 0.0"),
    ("--graph.sigma=nan", "graph_sigma must be positive and finite, got nan"),
    ("--graph.sigma=inf", "graph_sigma must be positive and finite, got inf"),
    ("--graph.k=24", "graph_k=24 is not below the 24 train pixels"),
])
def test_values_that_cannot_train_exit_1_before_any_work(
        scene_dir, tmp_path, capsys, monkeypatch, flag, message):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the values were checked")

    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", no_work)
    monkeypatch.setattr(mgk.pipeline, "extract_patches", no_work)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 *FAST_MODEL, *FAST_TRAIN, "--model.architecture=funet-a",
                 *flag.split()]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ckpt.exists()


def test_oversized_patch_size_exits_1_before_any_work(scene_dir, tmp_path,
                                                      capsys, monkeypatch):
    # 24 train pixels of 6 bands in 99999 x 99999 float32 patches would take
    # 5.8 TB; nothing is allocated, since every allocating step is stubbed
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the patch size was checked")

    for name in ("build_knn_rbf_graph", "extract_patches", "build"):
        monkeypatch.setattr(mgk.pipeline, name, no_work)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 *FAST_MODEL, *FAST_TRAIN, "--model.architecture=funet-c",
                 "--model.patch_size=99999"]) == 1
    assert capsys.readouterr().err == (
        "error: model.patch_size=99999 needs 5759884800576 bytes of patches "
        "for the 24 train pixels; the limit is 2147483648\n")
    assert not ckpt.exists()


@pytest.mark.parametrize("flag, message", [
    ("--model.classes=2", "model.classes=2 is below the split's 3 classes"),
    ("--model.input_bands=5", "model.input_bands=5 is not the cube's 6 bands"),
    ("--model.input_bands=7", "model.input_bands=7 is not the cube's 6 bands"),
])
@pytest.mark.parametrize("arch", ["minigcn", "cnn2d", "funet-c"])
def test_model_that_does_not_fit_the_data_exits_1_before_any_work(
        scene_dir, tmp_path, capsys, monkeypatch, flag, message, arch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the model was checked")

    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", no_work)
    monkeypatch.setattr(mgk.pipeline, "extract_patches", no_work)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 *FAST_MODEL, *FAST_TRAIN, f"--model.architecture={arch}",
                 flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ckpt.exists()


def test_model_with_spare_classes_trains(scene_dir, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 *FAST_MODEL, *FAST_TRAIN, "--train.epochs=1",
                 "--model.classes=4", "--model.input_bands=6"]) == 0
    capsys.readouterr()
    assert load_model(ckpt).cfg.classes == 4


@pytest.mark.parametrize("env, flag, message", [
    (None, "--train.seed=-1", "train.seed must be >= 0, got -1"),
    ("-1", "--train.seed=3", "MGK_SEED must be >= 0, got -1"),
    ("-7", None, "MGK_SEED must be >= 0, got -7"),
])
def test_negative_seed_exits_1_before_any_work(
        scene_dir, tmp_path, capsys, monkeypatch, env, flag, message):
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(mgk.cli, "load_dataset", no_work)
    ckpt = tmp_path / "m.mgkp"
    argv = ["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
            *FAST_MODEL, *FAST_TRAIN]
    assert main(argv + ([flag] if flag else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("env, flag, message", [
    (None, "-1", "--seed must be >= 0, got -1"),
    ("-1", "3", "MGK_SEED must be >= 0, got -1"),
])
def test_synth_refuses_a_negative_seed(tmp_path, capsys, monkeypatch, env,
                                       flag, message):
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    out = tmp_path / "scene"
    assert main(["synth", "--out-dir", str(out), "--seed", flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("momentum", ["0", "1"])
def test_bn_momentum_bounds_train(scene_dir, tmp_path, capsys, monkeypatch,
                                  momentum):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 *FAST_MODEL, *FAST_TRAIN, "--train.epochs=1",
                 f"--train.bn_momentum={momentum}"]) == 0
    capsys.readouterr()
    assert ckpt.exists()


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_synth_rejects_an_env_seed_that_is_not_an_integer(
        tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv(SEED_ENV_VAR, value)
    out = tmp_path / "scene"
    assert main(["synth", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {SEED_ENV_VAR}={value!r} is not an integer\n"
    assert not out.exists()


def test_synth_env_seed_is_equivalent_to_the_flag(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["synth", "--out-dir", str(tmp_path / "flag"),
                 "--seed", "8"]) == 0
    monkeypatch.setenv(SEED_ENV_VAR, "8")
    assert main(["synth", "--out-dir", str(tmp_path / "env"),
                 "--seed", "3"]) == 0
    capsys.readouterr()
    for name in ("cube.hsc", "labels.hsl", "split.json"):
        assert (tmp_path / "env" / name).read_bytes() == \
            (tmp_path / "flag" / name).read_bytes()


def test_synth_writes_loadable_dataset(scene_dir):
    ds = load_dataset(scene_dir / "cube.hsc", scene_dir / "labels.hsl",
                      scene_dir / "split.json")
    assert (ds.cube.height, ds.cube.width, ds.cube.bands) == (12, 12, 6)
    assert ds.num_classes == 3
    ids, _ = ds.part_pixels("train")
    assert ids.size == 24


def test_train_writes_checkpoint_log_and_summary(trained, capsys):
    out, ckpt = trained
    assert ckpt.exists() and (out / "train_log.csv").exists()
    lines = (out / "train_log.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,loss,train_oa"
    assert len(lines) == 1 + 6


@pytest.mark.parametrize("arch", ["minigcn", "funet-c"])
def test_train_frees_the_cube_before_the_first_epoch(scene_dir, tmp_path,
                                                     monkeypatch, arch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cubes, alive = [], []
    load, partition = mgk.cli.load_dataset, mgk.pipeline.partition_epoch

    def spied_load(*args):
        ds = load(*args)
        cubes.append(weakref.ref(ds.cube.values))
        return ds

    def checked_partition(*args):
        gc.collect()
        alive.append(cubes[0]() is not None)
        return partition(*args)

    monkeypatch.setattr(mgk.cli, "load_dataset", spied_load)
    monkeypatch.setattr(mgk.pipeline, "partition_epoch", checked_partition)
    assert main(["train", *data_flags(scene_dir),
                 f"--paths.checkpoint={tmp_path / 'm.mgkp'}", *FAST_MODEL,
                 *FAST_TRAIN, f"--model.architecture={arch}"]) == 0
    assert alive == [False] * 6


def test_patch_training_peaks_below_its_cube_float32_patches_and_a_block(
        tmp_path, monkeypatch):
    # The peak comes while the train set is built beside the cube: the
    # cube, the float32 train patches, the train spectra and the labels;
    # or earlier, while loading, the cube and normalizing's float64 and
    # bool blocks (9 bytes a value, a block of B values). The cube is freed
    # before the KNN graph and the epochs, whose temporaries here are
    # smaller than it. Float64 patches beside the cube do not fit.
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    size, bands, train_px, patch = 128, 64, 400, 7
    assert main(["synth", "--out-dir", str(tmp_path), "--size", str(size),
                 "--bands", str(bands), "--classes", "4",
                 "--train-per-class", str(train_px // 4)]) == 0
    cube_bytes = size * size * bands * 4
    patch_bytes = train_px * patch * patch * bands * 4
    other = 9 * mgk.data._BLOCK_VALUES + 64 * size * size + 64 * 1024
    assert patch_bytes > cube_bytes > other
    tracemalloc.start()
    try:
        assert main(["train", *data_flags(tmp_path),
                     f"--paths.checkpoint={tmp_path / 'm.mgkp'}",
                     *FAST_MODEL, "--model.architecture=funet-c",
                     f"--model.patch_size={patch}", "--train.epochs=1",
                     "--train.batch=8", "--graph.k=5"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube_bytes + patch_bytes + other


def test_same_seed_cli_runs_are_byte_identical(scene_dir, trained,
                                               tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, first = trained
    again = tmp_path / "again.mgkp"
    assert main(["train", *data_flags(scene_dir),
                 f"--paths.checkpoint={again}",
                 f"--paths.output={tmp_path}", *FAST_MODEL, *FAST_TRAIN,
                 "--train.seed=11"]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_env_seed_is_equivalent_to_the_flag(scene_dir, tmp_path,
                                            monkeypatch):
    flagged = tmp_path / "flag.mgkp"
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["train", *data_flags(scene_dir),
                 f"--paths.checkpoint={flagged}",
                 f"--paths.output={tmp_path / 'a'}", *FAST_MODEL,
                 *FAST_TRAIN, "--train.seed=5"]) == 0
    enved = tmp_path / "env.mgkp"
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    # the env var must override the contradictory flag
    assert main(["train", *data_flags(scene_dir),
                 f"--paths.checkpoint={enved}",
                 f"--paths.output={tmp_path / 'b'}", *FAST_MODEL,
                 *FAST_TRAIN, "--train.seed=9"]) == 0
    assert enved.read_bytes() == flagged.read_bytes()


def test_eval_reports_are_internally_consistent(scene_dir, trained,
                                                capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out, ckpt = trained
    for part in ("test", "train"):
        assert main(["eval", "--part", part, *data_flags(scene_dir),
                     f"--paths.checkpoint={ckpt}",
                     f"--paths.output={out}", "--train.batch=16",
                     "--graph.k=5"]) == 0
    capsys.readouterr()
    oa = {}
    for part in ("test", "train"):
        lines = (out / f"report_{part}.csv").read_text().strip().splitlines()
        assert lines[0] == "class_id,samples,recall_pct"
        cells = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        per_class = [float(cells[str(c)][2]) for c in ("1", "2", "3")]
        assert np.mean(per_class) == pytest.approx(float(cells["aa"][2]))
        oa[part] = float(cells["oa"][2])
        assert (out / f"report_{part}.txt").read_text().count("overall") == 1
    assert oa["train"] >= oa["test"] - 1e-9


def read_ppm(path):
    blob = path.read_bytes()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    rgb = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return rgb


def test_predict_map_is_deterministic_and_matches_truth(scene_dir, trained,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    outs = []
    for sub in ("m1", "m2"):
        out = tmp_path / sub
        assert main(["predict-map", *data_flags(scene_dir),
                     f"--paths.checkpoint={ckpt}", f"--paths.output={out}",
                     "--train.batch=16", "--graph.k=5"]) == 0
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "map.ppm").read_bytes() \
        == (outs[1] / "map.ppm").read_bytes()
    rgb = read_ppm(outs[0] / "map.ppm")
    assert rgb.shape == (12, 12, 3)
    truth_rgb = read_ppm(outs[0] / "truth.ppm")
    labels = load_labels(scene_dir / "labels.hsl").labels
    labeled = labels > 0
    match = np.all(rgb == truth_rgb, axis=2)[labeled]
    assert match.mean() >= 0.95
    legend = (outs[0] / "map_legend.txt").read_text().strip().splitlines()
    assert legend[0] == "class_id r g b"
    assert legend[1] == "0 0 0 0"
    assert len(legend) == 2 + 3


def test_predict_map_needs_only_the_cube(scene_dir, trained, tmp_path,
                                         capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    out = tmp_path / "cubeonly"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.checkpoint={ckpt}", f"--paths.output={out}",
                 "--train.batch=16", "--graph.k=5"]) == 0
    capsys.readouterr()
    assert (out / "map.ppm").exists()
    assert not (out / "truth.ppm").exists()


def test_inference_builds_its_chunk_graphs_with_the_training_graph(
        scene_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    ckpt = tmp_path / "m.mgkp"
    assert main(["train", *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                 f"--paths.output={tmp_path}", *FAST_MODEL,
                 "--train.epochs=2", "--train.batch=16",
                 "--train.base_lr=0.01", "--graph.k=4",
                 "--graph.sigma=0.5"]) == 0
    config = json.loads((tmp_path / "m.mgkp.json").read_text())["config"]
    assert (config["graph_k"], config["graph_sigma"]) == (4, 0.5)
    build, built = mgk.pipeline.build_knn_rbf_graph, []

    def spy(features, k, sigma):
        built.append((features.shape[1], k, sigma))
        return build(features, k, sigma)

    monkeypatch.setattr(mgk.pipeline, "build_knn_rbf_graph", spy)
    outs = []
    # given or not, an inference graph flag is not read
    for graph_flags in ([], ["--graph.k=9", "--graph.sigma=3"]):
        out = tmp_path / f"run{len(outs)}"
        argv = [*data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
                f"--paths.output={out}", "--train.batch=10", *graph_flags]
        assert main(["predict-map", *argv]) == 0
        assert main(["eval", *argv]) == 0
        outs.append(out)
    capsys.readouterr()
    # the 144-pixel map ends in a 4-pixel chunk, whose k is clamped to 3
    assert (4, 3, 0.5) in built
    assert all(k == min(4, c - 1) and sigma == 0.5 for c, k, sigma in built)
    for name in ("map.ppm", "report_test.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_predict_map_rejects_labels_of_another_shape(scene_dir, trained,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    labels = tmp_path / "short.hsl"
    save_labels(labels, LabelGrid(labels=np.zeros((9, 12), dtype=np.uint16)))
    out = tmp_path / "mismatch"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.labels={labels}", f"--paths.checkpoint={ckpt}",
                 f"--paths.output={out}", "--train.batch=16",
                 "--graph.k=5"]) == 1
    assert "labels 9x12 do not match cube 12x12" in capsys.readouterr().err
    assert not (out / "map.ppm").exists()
    assert not (out / "truth.ppm").exists()


@pytest.mark.parametrize("batch", [0, -5])
@pytest.mark.parametrize("command", ["predict-map", "eval"])
def test_inference_batch_below_one_is_refused(scene_dir, trained, tmp_path,
                                              capsys, monkeypatch, command,
                                              batch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_data(*args, **kwargs):
        raise AssertionError("data was read before the batch was checked")

    monkeypatch.setattr(mgk.cli, "load_dataset", no_data)
    monkeypatch.setattr(mgk.cli, "load_normalized_cube", no_data)
    _, ckpt = trained
    out = tmp_path / "refused"
    argv = [command, *data_flags(scene_dir), f"--paths.checkpoint={ckpt}",
            f"--paths.output={out}", f"--train.batch={batch}", "--graph.k=5"]
    with pytest.raises(ContractError,
                       match=f"^inference batch must be >= 1, got {batch}$"):
        run(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: inference batch must be >= 1, got {batch}\n"
    assert not out.exists()


_DROP = object()


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is _DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.mark.parametrize("path, value, message", [
    (("config", "classes"), "abc",
     "sidecar config 'classes' must be an integer, got 'abc'"),
    (("config", "classes"), None,
     "sidecar config 'classes' must be an integer, got None"),
    (("config", "classes"), True,
     "sidecar config 'classes' must be an integer, got True"),
    (("config", "gcn_hidden"), 12.5,
     "sidecar config 'gcn_hidden' must be an integer, got 12.5"),
    (("config", "architecture"), 3,
     "sidecar config 'architecture' must be a string, got 3"),
    (("config", "cnn_channels"), [4, 6],
     "sidecar config 'cnn_channels' must be a list of 3 integers, "
     "got [4, 6]"),
    (("config", "cnn_channels"), "4,6,12",
     "sidecar config 'cnn_channels' must be a list of 3 integers, "
     "got '4,6,12'"),
    (("config", "dropout"), 0.5, "sidecar 'config' has unknown key 'dropout'"),
    (("config", "classes"), _DROP, "sidecar 'config' is missing 'classes'"),
    (("config",), [], "sidecar 'config' must be a JSON object, got []"),
    # a sidecar written before the config held the inference graph
    (("layer_order",), ["gcn.bn_in"], "sidecar has unknown key 'layer_order'"),
    (("config", "graph_k"), _DROP, "sidecar 'config' is missing 'graph_k'"),
    (("extra",), 1, "sidecar has unknown key 'extra'"),
    (("config",), _DROP, "sidecar is missing 'config'"),
    (("config", "graph_sigma"), "1.0",
     "sidecar config 'graph_sigma' must be a number, got '1.0'"),
    (("config", "graph_sigma"), True,
     "sidecar config 'graph_sigma' must be a number, got True"),
    (("config", "graph_sigma"), None,
     "sidecar config 'graph_sigma' must be a number, got None"),
])
@pytest.mark.parametrize("command", ["predict-map", "eval"])
def test_malformed_sidecar_exits_2_naming_the_field(
        scene_dir, trained, tmp_path, capsys, monkeypatch, command, path,
        value, message):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_data(*args, **kwargs):
        raise AssertionError("data was read before the checkpoint")

    monkeypatch.setattr(mgk.cli, "load_dataset", no_data)
    monkeypatch.setattr(mgk.cli, "load_normalized_cube", no_data)
    _, ckpt = trained
    bad = tmp_path / "bad.mgkp"
    bad.write_bytes(ckpt.read_bytes())
    sidecar = json.loads(ckpt.with_name(ckpt.name + ".json").read_text())
    _set(sidecar, path, value)
    (tmp_path / "bad.mgkp.json").write_text(json.dumps(sidecar))
    out = tmp_path / "refused"
    assert main([command, *data_flags(scene_dir), f"--paths.checkpoint={bad}",
                 f"--paths.output={out}", "--train.batch=16",
                 "--graph.k=5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unparseable_sidecar_exits_2(scene_dir, trained, tmp_path, capsys,
                                     monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    bad = tmp_path / "bad.mgkp"
    bad.write_bytes(ckpt.read_bytes())
    (tmp_path / "bad.mgkp.json").write_text('{"config": {')
    out = tmp_path / "refused"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.checkpoint={bad}", f"--paths.output={out}",
                 "--train.batch=16", "--graph.k=5"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: unparseable sidecar {bad}.json: ")
    assert not out.exists()


def test_undecodable_sidecar_exits_2(scene_dir, trained, tmp_path, capsys,
                                     monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    bad = tmp_path / "bad.mgkp"
    bad.write_bytes(ckpt.read_bytes())
    (tmp_path / "bad.mgkp.json").write_bytes(b"\xff{}")
    out = tmp_path / "refused"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.checkpoint={bad}", f"--paths.output={out}",
                 "--train.batch=16", "--graph.k=5"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: unparseable sidecar {bad}.json: ")
    assert not out.exists()


def test_constant_prediction_gives_single_color_map(scene_dir, trained,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    mdl = load_model(ckpt)
    mdl.layers["head.fc2"].weights[:] = 0.0
    mdl.layers["head.fc2"].bias[:] = [0.0, 10.0, 0.0]
    rigged = tmp_path / "rigged.mgkp"
    save_model(rigged, mdl)
    out = tmp_path / "flat"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.checkpoint={rigged}", f"--paths.output={out}",
                 "--train.batch=16", "--graph.k=5"]) == 0
    capsys.readouterr()
    rgb = read_ppm(out / "map.ppm")
    colors = {tuple(px) for px in rgb.reshape(-1, 3)}
    assert colors == {PALETTE[1]}  # class id 2 everywhere


@pytest.mark.parametrize("too_many", ["model", "labels"])
def test_predict_map_refuses_classes_beyond_the_palette(scene_dir, trained,
                                                       tmp_path, capsys,
                                                       monkeypatch,
                                                       too_many):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, ckpt = trained
    labels = scene_dir / "labels.hsl"
    if too_many == "model":
        ckpt = tmp_path / "wide.mgkp"
        save_model(ckpt, build(ModelConfig(architecture="minigcn",
                                           input_bands=6, classes=25,
                                           gcn_hidden=12)))
        want = "model.classes=25 exceeds the 24-color palette"
    else:
        grid = load_labels(labels).labels.copy()
        grid[0, 0] = 25
        labels = tmp_path / "wide.hsl"
        save_labels(labels, LabelGrid(labels=grid))
        want = "class id 25 exceeds the 24-color palette"

    def no_cube(path):
        raise AssertionError("the cube was read")

    monkeypatch.setattr(mgk.cli, "load_normalized_cube", no_cube)
    out = tmp_path / "wide"
    assert main(["predict-map", f"--paths.cube={scene_dir / 'cube.hsc'}",
                 f"--paths.labels={labels}", f"--paths.checkpoint={ckpt}",
                 f"--paths.output={out}", "--train.batch=16",
                 "--graph.k=5"]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_write_legend_refuses_classes_beyond_the_palette(tmp_path):
    path = tmp_path / "legend.txt"
    with pytest.raises(ConfigError, match="class id 25 exceeds"):
        write_legend(path, 25)
    assert not path.exists()
    write_legend(path, 24)
    assert len(path.read_text().splitlines()) == 2 + 24


@pytest.mark.parametrize("grid_flag, grid, bad", [
    ("--k-grid", "5,0", "0"),
    ("--k-grid", "5,24", "24"),
    ("--sigma-grid", "1.0,-1", "-1.0"),
    ("--sigma-grid", "1.0,inf", "inf"),
])
def test_sweep_checks_the_whole_grid_before_the_first_cell(
        scene_dir, tmp_path, capsys, monkeypatch, grid_flag, grid, bad):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "sweep"
    assert main(["sweep", grid_flag, grid, *data_flags(scene_dir),
                 f"--paths.output={out}", *FAST_MODEL, *FAST_TRAIN,
                 "--train.epochs=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {grid_flag} value {bad} ")
    assert not (out / "sweep.csv").exists()


def test_sweep_checks_a_graph_free_grid_before_the_first_cell(
        scene_dir, tmp_path, capsys, monkeypatch):
    # every cell's model config holds its k, so cnn2d refuses k = 0 too
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "sweep"
    assert main(["sweep", "--k-grid", "5,0", *data_flags(scene_dir),
                 f"--paths.output={out}", *FAST_MODEL, *FAST_TRAIN,
                 "--model.architecture=cnn2d", "--train.epochs=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --k-grid value 0 ")
    assert not (out / "sweep.csv").exists()


def test_sweep_refuses_an_inference_batch_below_one_before_training(
        scene_dir, tmp_path, capsys, monkeypatch):
    # gcn trains full batch, so only the test-split inference reads the
    # batch
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the batch was checked")

    monkeypatch.setattr(mgk.cli, "train_model", no_training)
    out = tmp_path / "sweep"
    assert main(["sweep", "--k-grid", "5", *data_flags(scene_dir),
                 f"--paths.output={out}", *FAST_MODEL, *FAST_TRAIN,
                 "--model.architecture=gcn", "--train.batch=0"]) == 1
    assert capsys.readouterr().err == \
        "error: inference batch must be >= 1, got 0\n"
    assert not (out / "sweep.csv").exists()


def test_sweep_emits_one_row_per_grid_cell(scene_dir, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "sweep"
    assert main(["sweep", "--k-grid", "5,8", "--sigma-grid", "0.5,1.0",
                 *data_flags(scene_dir), f"--paths.output={out}",
                 *FAST_MODEL, *FAST_TRAIN, "--train.epochs=2",
                 "--train.seed=3"]) == 0
    capsys.readouterr()
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k,sigma,oa"
    assert len(lines) == 1 + 4
    cells = {(int(ln.split(",")[0]), float(ln.split(",")[1]))
             for ln in lines[1:]}
    assert cells == {(5, 0.5), (5, 1.0), (8, 0.5), (8, 1.0)}
    for ln in lines[1:]:
        assert 0.0 <= float(ln.split(",")[2]) <= 100.0


def test_bias_with_full_budget_is_exact(scene_dir, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "bias"
    assert main(["bias", "--budget", "24", "--trials", "16",
                 *data_flags(scene_dir), f"--paths.output={out}",
                 "--graph.k=5", "--train.seed=1"]) == 0
    capsys.readouterr()
    lines = (out / "bias.csv").read_text().strip().splitlines()
    assert lines[0] == "vertex_id,target,mc_mean,bias,stderr,mode"
    modes = set()
    for ln in lines[1:]:
        vid, target, mc_mean, bias, stderr, mode = ln.split(",")
        modes.add(mode)
        assert abs(float(bias)) <= 1e-12
        assert float(stderr) <= 1e-12
    assert len(lines) == 1 + 24 * len(modes)
    assert len(modes) == 2


@pytest.mark.parametrize("flags, named", [
    (["--trials", "1"], "--trials"),
    (["--budget", "-3"], "--budget"),
    (["--budget", "100000"], "--budget"),
])
def test_bias_checks_its_flags_before_the_graph(scene_dir, tmp_path, capsys,
                                                monkeypatch, flags, named):
    def no_graph(*args, **kwargs):
        raise AssertionError("the KNN graph was built")

    monkeypatch.setattr(mgk.cli, "build_knn_rbf_graph", no_graph)
    out = tmp_path / "bias"
    assert main(["bias", *flags, *data_flags(scene_dir),
                 f"--paths.output={out}", "--graph.k=5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named} must ")
    assert not out.exists()


def test_bench_times_every_mode_into_one_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["bench", "--n-grid", "64,128", "--d", "8", "--p", "4",
                "--m", "16", "--repeats", "3"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "mode,n,d,p,m,repeat,seconds"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {row[0] for row in rows} == {"full-gcn", "full-gcn-sparse",
                                        "minigcn"}
    assert len(rows) == 3 * 2 * 3
    for mode, n, d, p, m, repeat, seconds in rows:
        assert (d, p, m) == ("8", "4", "16" if mode == "minigcn" else "0")
        assert float(seconds) > 0


@pytest.mark.parametrize("flags, named", [
    (["--modes", "full-gcn,dense"], "'dense'"),
    (["--m", "0"], "m=0"),
    (["--m", "65"], "m=65"),
    (["--n-grid", "8,64"], "n=8"),
    (["--d", "0"], "d=0"),
    (["--repeats", "2"], "got 2"),
    (["--m", "1"], "m=1"),
])
def test_bench_checks_every_mode_before_the_first_timing(
        tmp_path, capsys, monkeypatch, flags, named):
    def no_timing(*args, **kwargs):
        raise AssertionError("a pass was timed")

    monkeypatch.setattr(mgk.bench, "_time_pass", no_timing)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--n-grid", "64,128", "--repeats", "3",
                 *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert list(tmp_path.iterdir()) == []


def train_model_calls(monkeypatch, then):
    """Spy on the CLI's ``train_model``: each call's arguments, bound to
    its signature, are appended to the returned list before ``then``
    runs with them."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(mgk.pipeline.train_model)
                     .bind(*args, **kwargs).arguments)
        return then(*args, **kwargs)

    monkeypatch.setattr(mgk.cli, "train_model", spy)
    return calls


class StopBeforeTraining(Exception):
    pass


def test_train_hands_train_model_every_train_field(scene_dir, tmp_path,
                                                   monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    chosen = dict(epochs=3, batch=8, base_lr=0.02, l2=0.005, bn_momentum=0.8,
                  seed=5)
    defaults = dataclasses.asdict(RunConfig().train)
    assert set(chosen) == set(defaults)
    assert all(chosen[name] != defaults[name] for name in chosen)

    def stop(*args, **kwargs):
        raise StopBeforeTraining

    calls = train_model_calls(monkeypatch, stop)
    with pytest.raises(StopBeforeTraining):
        run(["train", *data_flags(scene_dir),
             f"--paths.checkpoint={tmp_path / 'model.mgkp'}",
             *(f"--train.{name}={value}" for name, value in chosen.items())])
    (bound,) = calls
    assert {name: value for name, value in bound.items()
            if name not in ("ds", "model_cfg")} == chosen


def test_sweep_trains_each_cell_with_its_seed_and_graph(scene_dir, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    calls = train_model_calls(monkeypatch, mgk.pipeline.train_model)
    assert run(["sweep", "--k-grid", "5,8", "--sigma-grid", "0.5,1.0",
                *data_flags(scene_dir), f"--paths.output={tmp_path}",
                *FAST_MODEL, *FAST_TRAIN, "--train.epochs=1",
                "--train.seed=3"]) == 0
    capsys.readouterr()
    cells = [(list(c["seed"]), c["model_cfg"].graph_k,
              c["model_cfg"].graph_sigma) for c in calls]
    assert cells == [([3, 0, 0], 5, 0.5), ([3, 0, 1], 5, 1.0),
                     ([3, 1, 0], 8, 0.5), ([3, 1, 1], 8, 1.0)]


def test_bench_prints_the_slopes_of_the_rows_it_wrote(tmp_path, capsys,
                                                      monkeypatch):
    # each timed pass gets its own seconds, so every mode fits its own slope
    passes = []

    def fake_timing(fn, repeats):
        passes.append(fn)
        return [len(passes) ** 2 * (1.0 + 0.1 * r) for r in range(repeats)]

    monkeypatch.setattr(mgk.bench, "_time_pass", fake_timing)
    out = tmp_path / "bench"
    assert run(["bench", "--n-grid", "64,128,256", "--d", "8", "--p", "4",
                "--m", "16", "--repeats", "3",
                f"--paths.output={out}"]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(out / "bench.csv", encoding="utf-8", newline="") as fh:
        rows = [mgk.bench.BenchRow(
            row["mode"], *(int(row[f]) for f in ("n", "d", "p", "m",
                                                 "repeat")),
            float(row["seconds"])) for row in csv.DictReader(fh)]
    assert len(rows) == 3 * 3 * 3
    slopes = mgk.bench.slopes_from_rows(rows)
    assert list(slopes) == ["full-gcn", "full-gcn-sparse", "minigcn"]
    assert printed == [f"{mode}: log-log slope {slope:.3f}"
                       for mode, slope in slopes.items()] + [
        f"wrote {out / 'bench.csv'}"]


def test_class_map_rgb_palette_rules():
    grid = np.array([[0, 1], [2, 24]])
    rgb = class_map_rgb(grid)
    assert tuple(rgb[0, 0]) == (0, 0, 0)
    assert tuple(rgb[0, 1]) == PALETTE[0]
    assert tuple(rgb[1, 0]) == PALETTE[1]
    assert tuple(rgb[1, 1]) == PALETTE[23]
    with pytest.raises(ConfigError, match="palette"):
        class_map_rgb(np.array([[25]]))


def test_write_ppm_layout(tmp_path):
    rgb = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert blob[len(b"P6\n3 2\n255\n"):] == rgb.tobytes()
