"""End-to-end benchmark: ``mgk train`` then ``mgk predict-map``.

    python3 perfbench/run.py --workload minigcn-n4800 --seed 1 \\
        --seconds 32 --trace 0

Writes the workload's scene files from the seed (twice, compared by
digest), then runs repetitions, each in a fresh Python process
(``child.py``), one at a time, until ``--seconds`` are used up and at
least two have run. Every repetition's outputs are checked. The speeds
are totals over the run's repetitions, the other figures medians. The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (commands) and ``metrics``, which holds the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``, as BENCHMARK.json names them, with their units. See
README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, sha256, write_scene

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = HERE / "_out"
# Names, units and directions of the metrics; the code computes values by
# name.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# One BLAS thread, which is at most nproc on any machine and keeps each
# repetition on one core.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
MIN_REPS = 2
OA_FLOOR = 50.0  # percent; chance is 100 / 16 = 6.25
# A run must end within 180 s: no repetition starts after START_CUTOFF_S
# and each is killed at CHILD_DEADLINE_S.
START_CUTOFF_S = 120.0
CHILD_DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MGK_SEED", None)  # it would override train.seed
    for var in BLAS_ENV_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------ output checks

class CheckError(Exception):
    pass


def check_train_log(path, epochs) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != epochs:
        raise CheckError(f"train_log.csv has {len(rows)} rows, not {epochs}")
    bad = [r["epoch"] for r in rows if not math.isfinite(float(r["loss"]))]
    if bad:
        raise CheckError(f"train_log.csv loss is not finite at epochs {bad}")


def decode_map(path, size, classes):
    """Class ids (1-based, flat) of a map.ppm, through the CLI palette."""
    from mgk.cli import PALETTE
    with open(path, "rb") as fh:
        raw = fh.read()
    header = f"P6\n{size} {size}\n255\n".encode("ascii")
    if not raw.startswith(header) or \
            len(raw) != len(header) + size * size * 3:
        raise CheckError(f"map.ppm is not a {size}x{size} P6 pixmap")
    rgb = np.frombuffer(raw, np.uint8, offset=len(header)).reshape(-1, 3)
    rgb = rgb.astype(np.int64)
    codes = rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2]
    palette = np.array([r << 16 | g << 8 | b
                        for r, g, b in PALETTE[:classes]])
    order = np.argsort(palette)
    pos = np.minimum(np.searchsorted(palette[order], codes), classes - 1)
    unknown = palette[order][pos] != codes
    if unknown.any():
        raise CheckError(f"map.ppm has {int(unknown.sum())} pixels whose "
                         "color is no class of the palette")
    return order[pos] + 1


class Checker:
    """Checks each repetition's outputs, against the first for bytes."""

    DETERMINISTIC = {"train": ("model.mgkp", "model.mgkp.json",
                               "train_log.csv"),
                     "predict": ("map.ppm",)}

    def __init__(self, workload, labels, test_ids):
        self.workload = workload
        self.labels = labels
        self.test_ids = test_ids
        self.reference = {}

    def _same_bytes(self, command, rep_dir) -> None:
        for name in self.DETERMINISTIC[command]:
            digest = sha256(rep_dir / name)
            if self.reference.setdefault(name, digest) != digest:
                raise CheckError(f"{name} differs from the first repetition")

    def train(self, rep_dir) -> None:
        check_train_log(rep_dir / "train_log.csv", self.workload.epochs)
        self._same_bytes("train", rep_dir)

    def predict(self, rep_dir) -> float:
        """Checks the map; returns its test-pixel accuracy in percent."""
        scene = self.workload.scene
        ids = decode_map(rep_dir / "map.ppm", scene.size, scene.classes)
        truth = self.labels[self.test_ids]
        oa = 100.0 * float((ids[self.test_ids] == truth).mean())
        if oa < OA_FLOOR:
            raise CheckError(f"map test accuracy {oa:.2f} % is below the "
                             f"{OA_FLOOR} % floor")
        self._same_bytes("predict", rep_dir)
        return oa


# -------------------------------------------------------------- repetitions

class Outcome:
    """Tally of commands over the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what) -> None:
        self.failed += 1
        self.errors.append(what)


def run_rep(workload, seed, scene_dir, rep_dir, trace, checker, outcome,
            deadline):
    """One repetition in a fresh process; its figures, or None on failure.

    Returns (e2e metrics, layer metrics or None).
    """
    rep_dir.mkdir(parents=True)
    # a traced repetition maps once, so its layer figures cover one train
    # and one predict-map command
    train_argv, predict_argvs = workload.argv(
        str(scene_dir), str(rep_dir), seed, 1 if trace else workload.maps)
    spec = {"train": train_argv, "predict": predict_argvs, "trace": trace,
            "expected": tracing.expected_spans(workload.uses_patches),
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir.parent / f"spans-{rep_dir.name}.json")}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = rep_dir / "child.log"
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    if code == 3:
        raise HarnessError(log_path.read_text(errors="replace").strip())
    outcome.attempted += 1
    if code != 0:
        what = "timed out" if code is None else f"exited with {code}"
        outcome.fail(f"{rep_dir.name}: child {what}; see {log_path}")
        return None, None
    result = json.loads((rep_dir / "result.json").read_text())
    try:
        if not result["train"]["ok"]:
            raise CheckError(f"train: {result['train']['error']}")
        checker.train(rep_dir)
    except (CheckError, OSError, ValueError) as exc:
        outcome.fail(f"{rep_dir.name} train: {exc}")
        return None, None
    for j, command in enumerate(result["predict"]):
        outcome.attempted += 1
        try:
            if not command["ok"]:
                raise CheckError(command["error"])
            oa = checker.predict(rep_dir / f"map{j}")
        except (CheckError, OSError, ValueError) as exc:
            outcome.fail(f"{rep_dir.name} predict-map {j}: {exc}")
            return None, None
    e2e = {
        "setup_s": result["setup_s"],
        "train_s": result["train_s"],
        "map_s": [command["seconds"] for command in result["predict"]],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "map_test_oa": oa,
    }
    return e2e, result.get("layers")


def summary(reps, workload) -> dict:
    """Each end-to-end metric over the run's repetitions.

    The speeds are totals over the run: pixels over the seconds of every
    training window, or of every predict-map command. On a shared host
    the machine's speed drifts by tens of percent over seconds to
    minutes; over ten-run trials a total spread less from run to run
    than the median or the fastest epoch or command. The other metrics
    are medians over repetitions."""
    scene = workload.scene
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "train_px_per_s": scene.n_train * workload.epochs * len(reps)
        / sum(r["train_s"] for r in reps),
        "map_px_per_s": scene.pixels * sum(len(r["map_s"]) for r in reps)
        / sum(s for r in reps for s in r["map_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "map_test_oa": statistics.median(r["map_test_oa"] for r in reps),
    }


def overhead(traced, untraced) -> dict:
    """Tracing overhead: the traced figure over the untraced one, turned
    so that 1 means none and more means slower or bigger."""
    return {
        "trace.overhead.setup": traced["setup_s"] / untraced["setup_s"],
        "trace.overhead.train": (untraced["train_px_per_s"]
                                 / traced["train_px_per_s"]),
        "trace.overhead.map": (untraced["map_px_per_s"]
                               / traced["map_px_per_s"]),
        "trace.overhead.rss": (traced["peak_rss_mb"]
                               / untraced["peak_rss_mb"]),
    }


def report(metric, value, note="") -> None:
    print(f"  {metric['name']:<30} {value:>14.6g} {metric['unit']:<8} "
          f"({metric['better']} is better{note})")


def main(argv=None, workloads=WORKLOADS, out_root=OUT_ROOT) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "mgk" / "cli.py").is_file():
        print(f"perfbench: no mgk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))

    out = Path(out_root) / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    meta = machine_metadata()
    meta.update(workload=workload.name, seed=args.seed, trace=args.trace)
    (out / "meta.json").write_text(json.dumps(meta, indent=1))

    digests, labels, test_ids = write_scene(workload.scene, args.seed,
                                            out / "scene")
    again, _, _ = write_scene(workload.scene, args.seed, out / "scene-again")
    shutil.rmtree(out / "scene-again")
    correct = again == digests

    checker = Checker(workload, labels, test_ids)
    outcome = Outcome()
    runs = {False: [], True: []}  # traced? -> list of (e2e, layers)
    start = time.monotonic()
    deadline = start + CHILD_DEADLINE_S
    rep_s = []
    try:
        while True:
            n = len(rep_s)
            elapsed = time.monotonic() - start
            if n >= MIN_REPS and (
                    elapsed + statistics.mean(rep_s) > args.seconds
                    or elapsed > START_CUTOFF_S):
                break
            # the traced run alternates untraced and traced repetitions
            traced = bool(args.trace) and n % 2 == 1
            t0 = time.monotonic()
            e2e, layers = run_rep(workload, args.seed, out / "scene",
                                  out / f"rep{n}", traced, checker, outcome,
                                  deadline)
            rep_s.append(time.monotonic() - t0)
            if e2e is None:
                break  # a failure is reported, never retried
            runs[traced].append((e2e, layers))
    except HarnessError as exc:
        print(f"perfbench: harness error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "scene", ignore_errors=True)

    correct = correct and outcome.failed == 0
    untraced = [e for e, _ in runs[False]]
    traced = [e for e, _ in runs[True]]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(rep_s)} repetitions in {time.monotonic() - start:.1f} s")
    print(f"  machine: {meta['platform']}, Python {meta['python']}, numpy "
          f"{meta['numpy']}, {meta['blas']}, BLAS threads "
          f"{meta['blas_threads']}, nproc {meta['nproc']}, load "
          f"{meta['loadavg'][0]:.2f}")
    if digests != again:
        print("  FAILED scene files differ between two writes of one seed")
    for err in outcome.errors:
        print(f"  FAILED {err}")
    print(f"  {'failed_ops_ratio':<30} "
          f"{outcome.failed / outcome.attempted:>14.6g} ratio    "
          f"({outcome.failed} of {outcome.attempted} commands)")
    # A failure stops the run, so a section may have no figures; one that
    # has figures has them for every metric BENCHMARK.json names.
    values, sections = {}, []
    if untraced:
        values.update(summary(untraced, workload))
        sections.append("end_to_end")
    if args.trace and traced and untraced:
        values.update({name: statistics.median(l[name] for _, l in runs[True])
                       for name in runs[True][0][1]})
        values.update(overhead(summary(traced, workload), values))
        sections.append("per_layer")
    unknown = [m["name"] for key in sections for m in spec[key]
               if m["name"] not in values]
    if unknown:
        print(f"perfbench: BENCHMARK.json names metrics the benchmark does "
              f"not compute: {unknown}", file=sys.stderr)
        return 1
    notes = {
        "train_px_per_s": f"over {len(untraced)} x {workload.epochs} epochs",
        "map_px_per_s": f"over {sum(len(r['map_s']) for r in untraced)}"
                        " predict-map commands"}
    for metric in spec["end_to_end"] if "end_to_end" in sections else ():
        report(metric, values[metric["name"]], "; " + notes.get(
            metric["name"], f"median of {len(untraced)} repetitions"))
    for metric in spec["per_layer"] if "per_layer" in sections else ():
        report(metric, values[metric["name"]])
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section] if section in sections}
    (out / "reps.json").write_text(json.dumps(
        {"untraced": untraced, "traced": traced, "rep_seconds": rep_s,
         "errors": outcome.errors}, indent=1))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run kills and waits for the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
