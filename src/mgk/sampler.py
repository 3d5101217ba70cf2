"""Node-budget subgraph sampling for mini-batch graph training.

Each epoch draws a fresh uniformly random permutation of the vertices and
chunks it into batches of at most ``m`` nodes (partition without
replacement: every vertex appears in exactly one batch per epoch);
``partition_epoch`` returns them as a tuple of vertex id arrays. A batch
trains on the subgraph induced by its vertices: ``induce_subgraph``
returns the batch's vertices and the propagation operator of their
induced adjacency, with self-loops and induced degrees.

``estimator_bias_diagnostic`` measures (rather than assumes) the bias of
the per-vertex aggregation estimator that divides each full-graph
propagation entry, restricted to the batch, by a normalization constant
e_uv: e == 1 (plain restriction) and co-occurrence frequency. It compares
both against the full-batch aggregation, over trial partitions drawn in one
call with ``partition_epoch``'s law; a constant estimate gets a stderr of
exactly 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .graph import Graph, renormalized_propagation
from .linalg import SparseSymMatrix

# (trial, term) pairs per block of the bias diagnostic: 8 MiB per float64
BIAS_BLOCK_TERMS = 1 << 20


def partition_epoch(n: int, m: int, seed) -> tuple:
    """Chunk a fresh uniform permutation of range(n) into ceil(n/m) batches.

    The batches are a tuple of vertex id arrays; all have m nodes except
    possibly the last. ``seed`` is anything ``numpy.random.default_rng``
    accepts; a fixed seed gives a fixed partition.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    if not (1 <= m <= n):
        raise ContractError(f"budget must satisfy 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return tuple(perm[i:i + m] for i in range(0, n, m))


@dataclass(frozen=True)
class SubgraphBatch:
    """The subgraph induced by a batch's vertices: node_ids, and prop_s, the
    propagation recomputed on it (self-loops added, induced degrees), whose
    row i is vertex ``node_ids[i]``."""

    node_ids: np.ndarray
    prop_s: SparseSymMatrix


def _restrict(matrix: SparseSymMatrix, node_ids: np.ndarray
              ) -> SparseSymMatrix:
    """Entries of a sparse symmetric matrix with both endpoints in node_ids,
    reindexed to local positions.

    Reads only the batch's rows: storage is sorted by row, so each batch
    vertex's entries are one searchsorted slice, of which the entries whose
    column maps to a local position (-1 marks a vertex outside the batch)
    are kept.
    """
    local = np.full(matrix.dim, -1)
    local[node_ids] = np.arange(node_ids.size)
    starts = np.searchsorted(matrix.rows, node_ids, side="left")
    counts = np.searchsorted(matrix.rows, node_ids, side="right") - starts
    row_local = np.repeat(np.arange(node_ids.size), counts)
    entry = np.arange(row_local.size) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)
    col_local = local[matrix.cols[entry]]
    keep = col_local >= 0
    return SparseSymMatrix(node_ids.size, row_local[keep], col_local[keep],
                           matrix.vals[entry[keep]])


def induce_subgraph(g: Graph, node_ids) -> SubgraphBatch:
    """Restrict the graph to node_ids and rebuild the propagation operator.

    The induced adjacency keeps only edges with both endpoints in the batch;
    degrees and self-loop renormalization are recomputed on the subgraph, so
    an isolated vertex still propagates through its own self-loop (a
    singleton batch gets the 1x1 operator [[1]]).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64).ravel()
    if node_ids.size == 0:
        raise ContractError("node_ids must be non-empty")
    if node_ids.min() < 0 or node_ids.max() >= g.n:
        raise ContractError(f"node ids out of range for graph of order {g.n}")
    if np.unique(node_ids).size != node_ids.size:
        raise ContractError("node_ids contains duplicates")
    adj_s = _restrict(g.adjacency, node_ids)
    return SubgraphBatch(node_ids=node_ids,
                         prop_s=renormalized_propagation(adj_s))


@dataclass(frozen=True)
class BiasStats:
    """Per-vertex Monte-Carlo statistics for one normalization mode."""

    mc_mean: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class BiasReport:
    """Diagnostic comparing sampled aggregation against the full batch.

    ``target`` is the exact full-graph aggregation per vertex; ``modes``
    maps 'uniform' (e == 1) and 'frequency' (e_uv = C_uv / C_v counted from
    the trial stream) to their statistics. Estimates are scalars obtained
    through a 1-wide probe weight so bias is a single number per vertex.
    """

    vertex_ids: np.ndarray
    target: np.ndarray
    modes: dict


def estimator_bias_diagnostic(g: Graph, m: int, trials: int, seed,
                              features=None, weight=None) -> BiasReport:
    """Monte-Carlo bias measurement of the aggregation estimator.

    Draws ``trials`` independent epoch partitions with budget ``m``, runs
    the per-vertex estimator on every batch under both normalization modes,
    and reports mean/bias/variance/stderr per vertex against the exact
    full-batch aggregation. Deterministic for a fixed seed. One draw
    shuffles every trial's slot labels ``j // m``, which puts vertex v in
    batch ``tau(v) // m`` for a uniform permutation tau: the law of
    ``partition_epoch``, up to batch numbering, which is never read. A term
    of the full graph's propagation operator counts in a trial when its two
    vertices share a batch; one bincount per mode sums a block of trials.
    Cost is O(trials * nnz), and no n x n array is formed. A constant
    estimate has a variance and stderr of exactly 0.
    """
    if trials < 2:
        raise ContractError(f"trials must be >= 2, got {trials}")
    if not isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        raise ContractError(f"diagnostic seed must be an int or SeedSequence, "
                            f"got {type(seed).__name__}")
    n = g.n
    if not (1 <= m <= n):
        raise ContractError(f"budget must satisfy 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    if features is None:
        features = rng.standard_normal((n, 4))
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != n:
        raise ShapeError(f"features rows {features.shape[0]} != n={n}")
    if weight is None:
        weight = rng.standard_normal((features.shape[1], 1))
    weight = np.asarray(weight, dtype=np.float64)
    z = (features @ weight).ravel()
    prop = renormalized_propagation(g.adjacency)
    target = prop.matmul(z)

    # assign[t, v] is vertex v's batch in trial t
    assign = rng.permuted(
        np.broadcast_to(np.arange(n, dtype=np.int32) // m, (trials, n)),
        axis=1)

    tgt, src, val = prop.terms()
    per_block = max(1, BIAS_BLOCK_TERMS // tgt.size)
    blocks = [slice(t, t + per_block) for t in range(0, trials, per_block)]

    def together(blk):  # (trials, terms): do src and tgt share a batch?
        return assign[blk].take(src, 1) == assign[blk].take(tgt, 1)

    # co-occurrence per term; a term that never co-occurs is never used
    counts = sum(together(blk).sum(axis=0) for blk in blocks)
    freq = np.maximum(counts, 1) / float(trials)
    coef = {"uniform": val * z[src], "frequency": val / freq * z[src]}

    # accumulate deviations from each vertex's first estimate: the shifted
    # one-pass variance keeps its precision even when the spread is tiny
    # next to the level, and is exactly 0 for a constant estimate
    first = {}
    sums = {mode: np.zeros(n) for mode in coef}
    sqs = {mode: np.zeros(n) for mode in coef}
    for blk in blocks:
        same = together(blk)
        k = same.shape[0]
        slot = (np.arange(k)[:, None] * n + tgt).ravel()
        for mode, c in coef.items():
            est = np.bincount(slot, (same * c).ravel(), minlength=k * n)
            dev = est.reshape(k, n) - first.setdefault(mode, est[:n].copy())
            sq = dev ** 2
            # sum trial after trial, so the block size never changes a bit
            dev[0] += sums[mode]
            sq[0] += sqs[mode]
            sums[mode], sqs[mode] = dev.cumsum(0)[-1], sq.cumsum(0)[-1]

    modes = {}
    for mode in coef:
        shift = sums[mode] / trials
        var = np.maximum(
            (sqs[mode] - trials * shift ** 2) / (trials - 1), 0.0)
        mc_mean = first[mode] + shift
        modes[mode] = BiasStats(mc_mean=mc_mean, bias=mc_mean - target,
                                variance=var, stderr=np.sqrt(var / trials))
    return BiasReport(vertex_ids=np.arange(n), target=target, modes=modes)


BIAS_CSV_FIELDS = ("vertex_id", "target", "mc_mean", "bias", "stderr", "mode")


def write_bias_csv(report: BiasReport, fh) -> None:
    """Emit the diagnostic as CSV, one row per (vertex, mode)."""
    writer = csv.writer(fh)
    writer.writerow(BIAS_CSV_FIELDS)
    for mode, stats in report.modes.items():
        columns = (report.target, stats.mc_mean, stats.bias, stats.stderr)
        for i in report.vertex_ids:
            writer.writerow([int(i), *(repr(float(c[i])) for c in columns),
                             mode])
