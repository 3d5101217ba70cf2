"""Wall-time scaling measurement for the two training regimes.

For each graph size N the harness builds a random sparse graph, then times
one forward+backward graph-conv pass per repeat:

* ``full-gcn``  -- the whole graph at once through a dense propagation
  matrix (exposes the N^2 D term); a sparse-operator timing is recorded
  alongside under mode ``full-gcn-sparse`` for honesty. Each sparse pass
  runs on its own copy of the operator, so it pays for one product plan,
  as a training epoch on a freshly induced operator does.
* ``minigcn``   -- an epoch's worth of node-budget batches, each a small
  dense subgraph operator (linear in N for fixed budget).

Per-pass seconds come from timeit-style autoranged inner loops so the
measurements stay above clock resolution; the least-squares slope of
log(time) against log(N) is the headline number.
"""

from __future__ import annotations

import csv
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError
from .graph import _renorm_prop
from .linalg import SparseSymMatrix
from . import nn
from .sampler import partition_epoch

BENCH_MODES = ("full-gcn", "minigcn")
CSV_FIELDS = ("mode", "n", "d", "p", "m", "repeat", "seconds")
DEFAULT_N_GRID = (256, 512, 1024, 2048)


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
    slopes: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _random_graph_prop(n: int, rng, k: int = 8) -> SparseSymMatrix:
    """Propagation operator of a random ~k-neighbor graph on n vertices."""
    src = np.repeat(np.arange(n), k)
    dst = rng.integers(0, n, size=src.size)
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    w = rng.uniform(0.1, 1.0, size=pairs.shape[0])
    adj = SparseSymMatrix(n, pairs[:, 0], pairs[:, 1], w)
    return _renorm_prop(adj)


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


def _time_pass(fn, repeats: int, fresh=lambda: None) -> list:
    """Per-call seconds of ``fn(fresh())``, one value per repeat.

    Every call gets its own ``fresh()`` result, made before the sample's
    timer starts, so what one call caches on its argument (a sparse
    operator's product plan) is never reused by another timed call.
    """
    def sample(inner):
        args = [fresh() for _ in range(inner)]
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        return time.perf_counter() - t0

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


def _layer_pass(prop, h, params, dout):
    out, tape = nn.graph_conv_forward(h, prop, params)
    nn.graph_conv_backward(dout, tape)
    return out


def run_scaling(mode: str, n_grid=DEFAULT_N_GRID, d: int = 64, p: int = 16,
                m: int = 32, repeats: int = 5, seed=0) -> ScalingReport:
    """Time forward+backward passes across the size grid for one mode."""
    if mode not in BENCH_MODES:
        raise ContractError(f"mode must be one of {BENCH_MODES}, got {mode!r}")
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2 or sorted(set(n_grid)) != list(n_grid):
        raise ContractError("n_grid must be strictly increasing, length >= 2")
    if repeats < 3:
        raise ContractError(f"need >= 3 repeats for medians, got {repeats}")
    if mode == "minigcn" and not (1 <= m <= min(n_grid)):
        raise ContractError(f"budget m={m} must fit the smallest n")

    report = ScalingReport(metadata={
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "d": d, "p": p, "m": m, "repeats": repeats, "seed": seed,
    })
    rng = np.random.default_rng(seed)
    medians = {}
    for n in n_grid:
        prop = _random_graph_prop(n, rng)
        h = rng.standard_normal((n, d))
        params = nn.make_graph_conv(rng, d, p)
        dout = rng.standard_normal((n, p))
        if mode == "full-gcn":
            dense = prop.to_dense()
            samples = _time_pass(lambda _: _layer_pass(dense, h, params, dout),
                                 repeats)
            # training builds a new operator every epoch, so every timed
            # pass gets its own copy and pays for one product plan
            sparse_samples = _time_pass(
                lambda op: _layer_pass(op, h, params, dout), repeats,
                fresh=lambda: SparseSymMatrix(prop.dim, prop.rows, prop.cols,
                                              prop.vals),
            )
            for r, s in enumerate(sparse_samples):
                report.rows.append(BenchRow("full-gcn-sparse", n, d, p, 0,
                                            r, s))
        else:
            part = partition_epoch(n, m, rng.integers(2 ** 63))
            batches = []
            for ids in part.batches:
                sub = prop.to_dense()[np.ix_(ids, ids)]
                batches.append((sub, h[ids], dout[ids]))

            def epoch_pass(_):
                for sub, hb, db in batches:
                    _layer_pass(sub, hb, params, db)

            samples = _time_pass(epoch_pass, repeats)
        for r, s in enumerate(samples):
            report.rows.append(
                BenchRow(mode, n, d, p, m if mode == "minigcn" else 0, r, s)
            )
        medians.setdefault(mode, []).append(float(np.median(samples)))
    report.slopes[mode] = fit_loglog_slope(n_grid, medians[mode])
    if mode == "full-gcn":
        sparse_meds = [
            float(np.median([row.seconds for row in report.rows
                             if row.mode == "full-gcn-sparse" and row.n == n]))
            for n in n_grid
        ]
        report.slopes["full-gcn-sparse"] = fit_loglog_slope(n_grid,
                                                            sparse_meds)
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
