"""Node-budget subgraph sampling for mini-batch graph training.

Each epoch draws a fresh uniformly random permutation of the vertices and
chunks it into batches of at most ``m`` nodes (partition without
replacement: every vertex appears in exactly one batch per epoch);
``partition_epoch`` returns them as a tuple of vertex id arrays. A batch
trains on the subgraph induced by its vertices. ``induce_subgraph``
induces all of an epoch's batches in one O(n + nnz) pass: it returns
their concatenated vertices and one block-diagonal propagation operator,
with self-loops and induced degrees, whose block q is batch q's own
operator.

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
    """The subgraph induced by a partition's batches: node_ids, the batches
    concatenated, and prop_s, the propagation recomputed on it (self-loops
    added, induced degrees), whose row i is vertex ``node_ids[i]``. Only
    edges within a batch are kept, so prop_s is block-diagonal, one block
    per batch in order (``prop_s.diagonal_blocks``)."""

    node_ids: np.ndarray
    prop_s: SparseSymMatrix


def induce_subgraph(g: Graph, batches) -> SubgraphBatch:
    """Induce every batch of a partition in one pass, in O(n + nnz).

    ``batches`` is a sequence of disjoint, non-empty 1-D vertex id arrays;
    one batch is ``(ids,)``. Each vertex gets its position in the batches'
    concatenation and its batch number; the adjacency entries whose two
    endpoints share a batch are kept, mapped to those positions, and
    renormalized once. Degrees and self-loops are those of each batch's own
    induced subgraph, so an isolated vertex still propagates through its
    self-loop (a singleton batch gets the 1x1 block [[1]]), and each block
    is bitwise the operator of its batch induced alone: its entries keep
    their relative storage order, which fixes every sum. Bad batches are
    refused before any work.
    """
    if isinstance(batches, np.ndarray):
        raise ContractError(f"batches must be a sequence of id arrays, got "
                            f"a bare array of shape {batches.shape}; pass "
                            f"one batch as (ids,)")
    batches = [np.asarray(ids) for ids in batches]
    if not batches:
        raise ContractError("batches must hold at least one batch")
    for q, ids in enumerate(batches):
        if ids.ndim != 1 or ids.size == 0:
            raise ContractError(f"batch {q} must be a non-empty 1-D id "
                                f"array, got shape {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise ContractError(f"batch {q} must hold integer ids, got "
                                f"dtype {ids.dtype}")
    node_ids = np.concatenate(batches).astype(np.int64, copy=False)
    bad = (node_ids < 0) | (node_ids >= g.n)
    if bad.any():
        raise ContractError(f"node id {node_ids[np.argmax(bad)]} out of "
                            f"range for graph of order {g.n}")
    twice = np.bincount(node_ids, minlength=g.n) > 1
    if twice.any():
        raise ContractError(f"node id {np.argmax(twice)} is given twice")
    sizes = [ids.size for ids in batches]
    pos = np.empty(g.n, dtype=np.int64)
    pos[node_ids] = np.arange(node_ids.size)
    batch_of = np.full(g.n, -1, dtype=np.int64)
    batch_of[node_ids] = np.repeat(np.arange(len(sizes)), sizes)
    adj = g.adjacency
    row_batch = batch_of[adj.rows]
    keep = (row_batch >= 0) & (row_batch == batch_of[adj.cols])
    adj_s = SparseSymMatrix(node_ids.size, pos[adj.rows[keep]],
                            pos[adj.cols[keep]], adj.vals[keep])
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
    return BiasReport(target=target, modes=modes)


BIAS_CSV_FIELDS = ("vertex_id", "target", "mc_mean", "bias", "stderr", "mode")


def write_bias_csv(report: BiasReport, fh) -> None:
    """Emit the diagnostic as CSV, one row per (vertex, mode)."""
    writer = csv.writer(fh)
    writer.writerow(BIAS_CSV_FIELDS)
    for mode, stats in report.modes.items():
        columns = (report.target, stats.mc_mean, stats.bias, stats.stderr)
        for i, row in enumerate(zip(*columns)):
            writer.writerow([i, *(repr(float(c)) for c in row), mode])
