"""CPU-time scaling measurement for the two training regimes.

For each graph size N the harness builds a KNN graph on seeded random
points with ``build_knn_rbf_graph`` (untimed), then times:

* ``full-gcn``  -- one graph-conv layer forward+backward through the
  whole graph's dense propagation matrix, the N^2 D reference; under mode
  ``full-gcn-sparse``, the epoch ``gcn`` training runs: ``train_epoch``
  at budget N, one step on the one-batch partition's induced operator.
* ``minigcn``   -- the epoch ``minigcn`` training runs: ``train_epoch``
  at budget m, one ``induce_subgraph`` call, then one step per batch on
  its diagonal block (linear in N for a fixed budget).

A step is the whole ``minigcn`` model's (d bands, p hidden units, seeded
random labels) forward, backward and Adam step; each size's timed calls
train one model on one partition. Per-pass seconds are the process's CPU
seconds (``time.process_time``) over autoranged inner loops, so time that
another process holds the core is not counted; the slope of log(time)
against log(N) is the headline.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError
from .graph import build_knn_rbf_graph, renormalized_propagation
from . import nn
from .model import ModelConfig, build
from .optim import AdamState
from .pipeline import train_epoch

BENCH_MODES = ("full-gcn", "minigcn")
CSV_FIELDS = ("mode", "n", "d", "p", "m", "repeat", "seconds")
DEFAULT_N_GRID = (256, 512, 1024, 2048)
# neighbours each vertex selects in the bench graphs
GRAPH_K = 8


@dataclass
class BenchRow:
    mode: str
    n: int
    d: int
    p: int
    m: int
    repeat: int
    seconds: float


@dataclass
class ScalingReport:
    rows: list = field(default_factory=list)

    @property
    def slopes(self) -> dict:
        """Log-log slope per mode, fitted to the medians of ``rows``."""
        return slopes_from_rows(self.rows)


def _autorange(sample, min_sample=0.02):
    """Calls per timing sample so each sample takes >= min_sample seconds.

    Reads the fastest of three samples per step, as one stalled sample would
    stop the search early."""
    inner = 1
    while True:
        elapsed = min(sample(inner) for _ in range(3))
        if elapsed >= min_sample:
            return inner
        inner *= 2 if elapsed > min_sample / 4 else 10


def _time_pass(fn, repeats: int) -> list:
    """Per-call CPU seconds of ``fn()``, one value per repeat. The process's
    CPU clock does not count time that another process holds the core."""
    def sample(inner):
        t0 = time.process_time()
        for _ in range(inner):
            fn()
        return time.process_time() - t0

    inner = _autorange(sample)
    samples = []
    for _ in range(repeats):
        elapsed = sample(inner)
        if elapsed < 1e-3:
            raise NumericError(
                "timing sample below 1 ms resolution; widen the N grid"
            )
        samples.append(elapsed / inner)
    return samples


def fit_loglog_slope(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ns.size < 2:
        raise ContractError("slope needs at least two sizes")
    if np.any(ts <= 0):
        raise ContractError("times must be positive")
    slope, _ = np.polyfit(np.log(ns), np.log(ts), 1)
    return float(slope)


def check_scaling_args(modes, n_grid, d: int, p: int, m: int,
                       repeats: int) -> tuple:
    """Refuse, naming the value, any argument that one of ``modes`` could
    not run with; returns the grid as a tuple of ints."""
    for mode in modes:
        if mode not in BENCH_MODES:
            raise ContractError(
                f"mode must be one of {BENCH_MODES}, got {mode!r}")
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2 or sorted(set(n_grid)) != list(n_grid):
        raise ContractError(f"n_grid must be strictly increasing, length "
                            f">= 2, got {n_grid}")
    if n_grid[0] <= GRAPH_K:
        raise ContractError(f"n_grid's smallest n={n_grid[0]} must exceed "
                            f"the bench graph's k={GRAPH_K}")
    if d < 1 or p < 1:
        raise ContractError(f"d and p must be >= 1, got d={d}, p={p}")
    if repeats < 3:
        raise ContractError(f"need >= 3 repeats for medians, got {repeats}")
    # train-mode batch norm cannot take a one-node batch
    if "minigcn" in modes and not (2 <= m <= n_grid[0]):
        raise ContractError(f"budget m={m} must satisfy 2 <= m <= "
                            f"{n_grid[0]}, the smallest n")
    return n_grid


def run_scaling(mode: str, n_grid=DEFAULT_N_GRID, d: int = 64, p: int = 16,
                m: int = 32, repeats: int = 5, seed=0) -> ScalingReport:
    """Time training passes across the size grid for one mode."""
    n_grid = check_scaling_args((mode,), n_grid, d, p, m, repeats)
    report = ScalingReport()
    rng = np.random.default_rng(seed)
    # 16 label classes, as in the Indian Pines scene
    cfg = ModelConfig("minigcn", input_bands=d, classes=16, gcn_hidden=p)
    full = mode == "full-gcn"
    for n in n_grid:
        g = build_knn_rbf_graph(rng.random((n, 3)), GRAPH_K, 1.0)
        h = rng.standard_normal((n, d))
        timed = {}
        if full:
            params = nn.make_graph_conv(rng, d, p)
            dout = rng.standard_normal((n, p))
            dense = renormalized_propagation(g.adjacency).to_dense()

            def dense_pass():
                _, tape = nn.graph_conv_forward(h, dense, params)
                nn.graph_conv_backward(dout, tape)

            timed[mode] = _time_pass(dense_pass, repeats)
        labels = np.eye(cfg.classes)[rng.integers(cfg.classes, size=n)]
        mdl, state = build(cfg, seed=rng.integers(2 ** 63)), AdamState()
        part_seed = rng.integers(2 ** 63)
        # the trainer's default rate, weight decay and batch norm momentum
        timed["full-gcn-sparse" if full else mode] = _time_pass(
            lambda: train_epoch(mdl, state, g, h, labels, None,
                                n if full else m, part_seed, 0.001,
                                l2=0.001, bn_momentum=0.9), repeats)
        for name, samples in timed.items():
            report.rows += [BenchRow(name, n, d, p, 0 if full else m, r, s)
                            for r, s in enumerate(samples)]
    return report


def write_csv(report: ScalingReport, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_FIELDS)
    for row in report.rows:
        writer.writerow([row.mode, row.n, row.d, row.p, row.m, row.repeat,
                         repr(row.seconds)])


def slopes_from_rows(rows) -> dict:
    """Recompute slopes from raw rows (medians per (mode, n))."""
    by_mode = {}
    for row in rows:
        by_mode.setdefault(row.mode, {}).setdefault(row.n, []).append(
            row.seconds
        )
    out = {}
    for mode, sizes in by_mode.items():
        ns = sorted(sizes)
        meds = [float(np.median(sizes[n])) for n in ns]
        out[mode] = fit_loglog_slope(ns, meds)
    return out
