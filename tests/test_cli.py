import json
import os

import numpy as np
import pytest

from mgk.cli import (PALETTE, RunConfig, SEED_ENV_VAR, class_map_rgb,
                     load_run_config, main, parse_overrides, write_ppm)
from mgk.data import LabelGrid, load_labels, save_labels
from mgk.errors import ConfigError
from mgk.model import load_model, save_model
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
