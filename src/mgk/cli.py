"""Command-line interface.

Subcommands: train, eval, predict-map, sweep, bias, bench, synth. Every
command reads an optional JSON config file plus flat dotted overrides
(``--train.epochs=10``); precedence is flags > file > defaults, and the
MGK_SEED environment variable overrides the seed from either. Exit codes:
0 success, 1 contract/config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bench as bench_mod
from . import sampler as sampler_mod
from .data import (load_cube, load_labels, normalize_bands, save_cube,
                   save_labels, save_split, synth_scene)
from .errors import (ConfigError, ContractError, FormatError, MgkError,
                     NumericError, ShapeError)
from .graph import build_knn_rbf_graph
from .metrics import (kappa, overall_accuracy, report_text, write_report_csv,
                      UndefinedKappaError)
from .model import ModelConfig, load_model, save_model
from .pipeline import (Dataset, check_labels_match, evaluate_part,
                       format_log_rows, infer_model_config, load_dataset,
                       predict_pixels, train_model)

SEED_ENV_VAR = "MGK_SEED"

# 24 fixed map colors; class id 0 (unlabeled) always renders black
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 190), (0, 128, 128), (230, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255), (100, 155, 255), (65, 117, 5), (139, 87, 42),
)


# ------------------------------------------------------------- configuration

@dataclass
class ModelSection:
    architecture: str = "minigcn"
    input_bands: int = 0  # 0 = infer from the cube
    classes: int = 0      # 0 = infer from the split
    gcn_hidden: int = 128
    cnn_channels: tuple = (32, 64, 128)
    fusion_fc: int = 128
    patch_size: int = 7


@dataclass
class TrainSection:
    epochs: int = 200
    batch: int = 32
    base_lr: float = 0.001
    l2: float = 0.001
    bn_momentum: float = 0.9
    seed: int = 0


@dataclass
class GraphSection:
    k: int = 10
    sigma: float = 1.0


@dataclass
class PathsSection:
    cube: str = ""
    labels: str = ""
    split: str = ""
    checkpoint: str = ""
    output: str = ""


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    graph: GraphSection = field(default_factory=GraphSection)
    paths: PathsSection = field(default_factory=PathsSection)


def _coerce(current, raw: str, key: str):
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{key}: cannot parse {raw!r} as a boolean")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} as an int") \
                from exc
    if isinstance(current, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} as a float") \
                from exc
    if isinstance(current, tuple):
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"{key}: cannot parse {raw!r} as comma-separated ints"
            ) from exc
    return raw


def _apply_value(cfg: RunConfig, key: str, value, *, from_file: bool):
    parts = key.split(".")
    if len(parts) != 2:
        raise ConfigError(f"config key {key!r} must look like section.field")
    section_name, field_name = parts
    section = getattr(cfg, section_name, None)
    if section is None or not dataclasses.is_dataclass(section):
        raise ConfigError(f"unknown config section {section_name!r}")
    if field_name not in {f.name for f in dataclasses.fields(section)}:
        raise ConfigError(
            f"unknown config field {field_name!r} in section "
            f"{section_name!r}"
        )
    current = getattr(section, field_name)
    if from_file:
        if isinstance(current, tuple):
            value = tuple(int(v) for v in value)
        elif isinstance(current, (int, float)) and not isinstance(value,
                                                                  bool):
            value = type(current)(value)
        setattr(section, field_name, value)
    else:
        setattr(section, field_name, _coerce(current, value, key))


def load_run_config(config_path, overrides: dict) -> RunConfig:
    """Defaults, then the JSON file, then flag overrides, then MGK_SEED."""
    cfg = RunConfig()
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file is not valid JSON: {exc}",
                              offset=exc.pos) from exc
        if not isinstance(doc, dict):
            raise FormatError("config JSON must be an object of sections")
        for section_name, body in doc.items():
            if not isinstance(body, dict):
                raise ConfigError(
                    f"config section {section_name!r} must be an object"
                )
            for field_name, value in body.items():
                _apply_value(cfg, f"{section_name}.{field_name}", value,
                             from_file=True)
    for key, raw in overrides.items():
        _apply_value(cfg, key, raw, from_file=False)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.train.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(
                f"{SEED_ENV_VAR}={env_seed!r} is not an integer"
            ) from exc
    return cfg


def parse_overrides(extras) -> dict:
    """Turn leftover ``--section.field=value`` tokens into a dict."""
    out = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or "." not in tok:
            raise ConfigError(f"unrecognized argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"override {tok!r} is missing a value")
            key, value = body, extras[i + 1]
            i += 1
        out[key] = value
        i += 1
    return out


# ------------------------------------------------------------------ plumbing

def _require(cfg: RunConfig, *path_fields):
    for name in path_fields:
        if not getattr(cfg.paths, name):
            raise ConfigError(f"paths.{name} must be set for this command")


def _out_dir(cfg: RunConfig) -> str:
    out = cfg.paths.output or (os.path.dirname(cfg.paths.checkpoint) or ".")
    os.makedirs(out, exist_ok=True)
    return out


def _load_ds(cfg: RunConfig) -> Dataset:
    _require(cfg, "cube", "labels", "split")
    return load_dataset(cfg.paths.cube, cfg.paths.labels, cfg.paths.split)


def _model_cfg(cfg: RunConfig, ds: Dataset) -> ModelConfig:
    m = cfg.model
    return infer_model_config(
        ds, m.architecture, gcn_hidden=m.gcn_hidden,
        cnn_channels=m.cnn_channels, fusion_fc=m.fusion_fc,
        patch_size=m.patch_size, input_bands=m.input_bands,
        classes=m.classes,
    )


def _train(cfg: RunConfig, ds: Dataset, seed=None):
    t = cfg.train
    return train_model(
        ds, _model_cfg(cfg, ds), epochs=t.epochs, batch=t.batch,
        base_lr=t.base_lr, l2=t.l2, bn_momentum=t.bn_momentum,
        seed=t.seed if seed is None else seed,
        graph_k=cfg.graph.k, graph_sigma=cfg.graph.sigma,
    )


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary P6 pixmap."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def class_map_rgb(class_ids: np.ndarray) -> np.ndarray:
    """Map class ids (0 = unlabeled = black) through the fixed palette."""
    class_ids = np.asarray(class_ids)
    top = int(class_ids.max(initial=0))
    if top > len(PALETTE):
        raise ConfigError(
            f"{top} classes exceed the {len(PALETTE)}-color palette"
        )
    lut = np.zeros((len(PALETTE) + 1, 3), dtype=np.uint8)
    lut[1:] = np.array(PALETTE, dtype=np.uint8)
    return lut[class_ids]


def write_legend(path, num_classes: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("class_id r g b\n")
        fh.write("0 0 0 0\n")
        for c in range(1, num_classes + 1):
            r, g, b = PALETTE[c - 1]
            fh.write(f"{c} {r} {g} {b}\n")


# ------------------------------------------------------------------ commands

def cmd_synth(args) -> int:
    cube, grid, split = synth_scene(
        classes=args.classes, size=args.size, bands=args.bands,
        noise_sigma=args.noise_sigma, seed=args.seed,
        train_per_class=args.train_per_class,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    cube_path = os.path.join(args.out_dir, "cube.hsc")
    labels_path = os.path.join(args.out_dir, "labels.hsl")
    split_path = os.path.join(args.out_dir, "split.json")
    save_cube(cube_path, cube)
    save_labels(labels_path, grid)
    save_split(split_path, split)
    counts = split.counts()
    print(f"wrote {cube_path} ({cube.height}x{cube.width}x{cube.bands})")
    print(f"wrote {labels_path}")
    print(f"wrote {split_path} train={counts['train']} test={counts['test']}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint")
    ds = _load_ds(cfg)
    result = _train(cfg, ds)
    os.makedirs(os.path.dirname(cfg.paths.checkpoint) or ".", exist_ok=True)
    save_model(cfg.paths.checkpoint, result.model)
    log_path = os.path.join(_out_dir(cfg), "train_log.csv")
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(format_log_rows(result.log_rows))
    print(f"wrote {cfg.paths.checkpoint}")
    print(f"wrote {log_path}")
    if result.log_rows:
        epoch, lr, loss, oa = result.log_rows[-1]
        print(f"final epoch {epoch}: lr={lr:.6g} loss={loss:.6f} "
              f"train-oa={oa:.2f}")
    return 0


def cmd_eval(cfg: RunConfig, part: str = "test") -> int:
    _require(cfg, "checkpoint")
    ds = _load_ds(cfg)
    mdl = load_model(cfg.paths.checkpoint)
    cm = evaluate_part(mdl, ds, part, batch=cfg.train.batch,
                       graph_k=cfg.graph.k, graph_sigma=cfg.graph.sigma)
    out = _out_dir(cfg)
    csv_path = os.path.join(out, f"report_{part}.csv")
    txt_path = os.path.join(out, f"report_{part}.txt")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_report_csv(cm, fh)
    text = report_text(cm)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {csv_path}")
    print(f"wrote {txt_path}")
    return 0


def cmd_predict_map(cfg: RunConfig) -> int:
    _require(cfg, "cube", "checkpoint")
    mdl = load_model(cfg.paths.checkpoint)
    cube = normalize_bands(load_cube(cfg.paths.cube))
    truth = None
    if cfg.paths.labels:
        truth = load_labels(cfg.paths.labels)
        check_labels_match(cube, truth)
    h, w = cube.height, cube.width
    preds = predict_pixels(mdl, cube, np.arange(h * w),
                           batch=cfg.train.batch, graph_k=cfg.graph.k,
                           graph_sigma=cfg.graph.sigma)
    pred_map = (preds + 1).reshape(h, w)
    out = _out_dir(cfg)
    map_path = os.path.join(out, "map.ppm")
    legend_path = os.path.join(out, "map_legend.txt")
    write_ppm(map_path, class_map_rgb(pred_map))
    write_legend(legend_path, mdl.cfg.classes)
    print(f"wrote {map_path}")
    print(f"wrote {legend_path}")
    if truth is not None:
        truth_path = os.path.join(out, "truth.ppm")
        write_ppm(truth_path, class_map_rgb(truth.labels))
        print(f"wrote {truth_path}")
    return 0


def cmd_sweep(cfg: RunConfig, k_grid, sigma_grid) -> int:
    ds = _load_ds(cfg)
    out = _out_dir(cfg)
    rows = []
    for ki, k in enumerate(k_grid):
        for si, sigma in enumerate(sigma_grid):
            cell = load_run_config(None, {})
            for section in ("model", "train", "graph", "paths"):
                setattr(cell, section, dataclasses.replace(
                    getattr(cfg, section)))
            cell.graph.k = int(k)
            cell.graph.sigma = float(sigma)
            result = _train(cell, ds, seed=[cfg.train.seed, ki, si])
            cm = evaluate_part(result.model, ds, "test",
                               batch=cell.train.batch, graph_k=cell.graph.k,
                               graph_sigma=cell.graph.sigma)
            oa = overall_accuracy(cm)
            rows.append((int(k), float(sigma), oa))
            print(f"k={k} sigma={sigma}: test OA {oa:.2f}")
    sweep_path = os.path.join(out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("k,sigma,oa\n")
        for k, sigma, oa in rows:
            fh.write(f"{k},{sigma!r},{oa!r}\n")
    print(f"wrote {sweep_path}")
    return 0


def cmd_bias(cfg: RunConfig, budget, trials: int) -> int:
    ds = _load_ds(cfg)
    x_all = ds.cube.pixels()
    train_ids, _ = ds.part_pixels("train")
    feats = x_all[train_ids]
    g = build_knn_rbf_graph(feats, cfg.graph.k, cfg.graph.sigma)
    m = budget if budget else min(cfg.train.batch, g.n)
    report = sampler_mod.estimator_bias_diagnostic(
        g, m, trials, cfg.train.seed, features=feats
    )
    out = _out_dir(cfg)
    bias_path = os.path.join(out, "bias.csv")
    with open(bias_path, "w", encoding="utf-8", newline="") as fh:
        sampler_mod.write_bias_csv(report, fh)
    for mode, stats in report.modes.items():
        print(f"{mode}: max |bias| {np.max(np.abs(stats.bias)):.6g}, "
              f"max stderr {np.max(stats.stderr):.6g}")
    print(f"wrote {bias_path}")
    return 0


def cmd_bench(cfg: RunConfig, modes, n_grid, d, p, m, repeats) -> int:
    out = _out_dir(cfg) if (cfg.paths.output or cfg.paths.checkpoint) else "."
    all_rows = []
    slopes = {}
    for mode in modes:
        report = bench_mod.run_scaling(
            mode, n_grid=n_grid, d=d, p=p, m=m, repeats=repeats,
            seed=cfg.train.seed,
        )
        all_rows.extend(report.rows)
        slopes.update(report.slopes)
    bench_path = os.path.join(out, "bench.csv")
    merged = bench_mod.ScalingReport(rows=all_rows, slopes=slopes)
    with open(bench_path, "w", encoding="utf-8", newline="") as fh:
        bench_mod.write_csv(merged, fh)
    for mode, slope in slopes.items():
        print(f"{mode}: log-log slope {slope:.3f}")
    print(f"wrote {bench_path}")
    return 0


# ---------------------------------------------------------------- arg parsing

class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of calling sys.exit."""

    def error(self, message):
        raise ConfigError(message)


def _int_list(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _float_list(raw: str):
    return tuple(float(v) for v in raw.split(","))


def build_parser() -> _Parser:
    parser = _Parser(prog="mgk", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", default=None,
                       help="JSON config file; dotted flags override it")

    with_config(sub.add_parser("train", allow_abbrev=False))
    p_eval = sub.add_parser("eval", allow_abbrev=False)
    with_config(p_eval)
    p_eval.add_argument("--part", choices=("train", "test"), default="test")
    with_config(sub.add_parser("predict-map", allow_abbrev=False))

    p_sweep = sub.add_parser("sweep", allow_abbrev=False)
    with_config(p_sweep)
    p_sweep.add_argument("--k-grid", type=_int_list, default=(5, 10, 15))
    p_sweep.add_argument("--sigma-grid", type=_float_list,
                         default=(0.5, 1.0, 2.0))

    p_bias = sub.add_parser("bias", allow_abbrev=False)
    with_config(p_bias)
    p_bias.add_argument("--budget", type=int, default=0,
                        help="node budget m (default: train.batch)")
    p_bias.add_argument("--trials", type=int, default=1000)

    p_bench = sub.add_parser("bench", allow_abbrev=False)
    with_config(p_bench)
    p_bench.add_argument("--modes", type=lambda s: tuple(s.split(",")),
                         default=("full-gcn", "minigcn"))
    p_bench.add_argument("--n-grid", type=_int_list,
                         default=bench_mod.DEFAULT_N_GRID)
    p_bench.add_argument("--d", type=int, default=64)
    p_bench.add_argument("--p", type=int, default=16)
    p_bench.add_argument("--m", type=int, default=32)
    p_bench.add_argument("--repeats", type=int, default=5)

    p_synth = sub.add_parser("synth", allow_abbrev=False)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--classes", type=int, default=3)
    p_synth.add_argument("--size", type=int, default=32)
    p_synth.add_argument("--bands", type=int, default=16)
    p_synth.add_argument("--noise-sigma", type=float, default=0.02)
    p_synth.add_argument("--train-per-class", type=int, default=50)
    p_synth.add_argument("--seed", type=int, default=7)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command == "synth":
        if extras:
            raise ConfigError(f"unrecognized arguments: {extras}")
        if os.environ.get(SEED_ENV_VAR):
            args.seed = int(os.environ[SEED_ENV_VAR])
        return cmd_synth(args)
    cfg = load_run_config(args.config, parse_overrides(extras))
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "eval":
        return cmd_eval(cfg, part=args.part)
    if args.command == "predict-map":
        return cmd_predict_map(cfg)
    if args.command == "sweep":
        return cmd_sweep(cfg, args.k_grid, args.sigma_grid)
    if args.command == "bias":
        return cmd_bias(cfg, args.budget, args.trials)
    if args.command == "bench":
        return cmd_bench(cfg, args.modes, args.n_grid, args.d, args.p,
                         args.m, args.repeats)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = run(argv)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (ConfigError, ContractError, ShapeError, NumericError,
            UndefinedKappaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except MgkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
