"""Node-budget subgraph sampling for mini-batch graph training.

Each epoch draws a fresh uniformly random permutation of the vertices and
chunks it into batches of at most ``m`` nodes (partition without
replacement: every vertex appears in exactly one batch per epoch). A batch
trains on the subgraph induced by its vertices, whose propagation operator
is recomputed from the induced adjacency plus self-loops.

``node_estimate`` is the per-vertex aggregation estimator that divides each
full-graph propagation entry by a normalization constant e_uv; it restricts
the graph's operator to the batch when called, so a training batch carries
no full-graph entries. With e == 1 it reduces to plain restriction, and
``estimator_bias_diagnostic`` measures (rather than assumes) the bias of
both choices against the full-batch aggregation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, ShapeError
from .graph import Graph, _renorm_prop
from .linalg import SparseSymMatrix
from .nn import LayerParams


@dataclass(frozen=True)
class EpochPartition:
    """One epoch's disjoint batches covering all n vertices."""

    batches: tuple
    budget: int
    seed: object

    @property
    def n(self) -> int:
        return int(sum(b.size for b in self.batches))


def partition_epoch(n: int, m: int, seed) -> EpochPartition:
    """Chunk a fresh uniform permutation of range(n) into ceil(n/m) batches.

    All batches have m nodes except possibly the last. ``seed`` is anything
    ``numpy.random.default_rng`` accepts; a fixed seed gives a fixed
    partition.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    if not (1 <= m <= n):
        raise ContractError(f"budget must satisfy 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    batches = tuple(perm[i:i + m] for i in range(0, n, m))
    return EpochPartition(batches=batches, budget=m, seed=seed)


@dataclass
class SubgraphBatch:
    """A batch's vertices plus what a step reads of them.

    prop_s is the propagation recomputed on the induced subgraph (self-loops
    added, induced degrees); batches of a graph-free model carry None.
    """

    node_ids: np.ndarray
    prop_s: Optional[SparseSymMatrix]
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None


def _restrict(matrix: SparseSymMatrix, node_ids: np.ndarray
              ) -> SparseSymMatrix:
    """Entries of a sparse symmetric matrix with both endpoints in node_ids,
    reindexed to local positions."""
    local = np.full(matrix.dim, -1, dtype=np.int64)
    local[node_ids] = np.arange(node_ids.size)
    keep = (local[matrix.rows] >= 0) & (local[matrix.cols] >= 0)
    return SparseSymMatrix(
        node_ids.size,
        local[matrix.rows[keep]],
        local[matrix.cols[keep]],
        matrix.vals[keep],
    )


def induce_subgraph(g: Graph, node_ids, features=None, labels=None
                    ) -> SubgraphBatch:
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
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != node_ids.size:
            raise ShapeError(
                f"features rows {features.shape[0]} != batch size "
                f"{node_ids.size}"
            )
    if labels is not None:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape[0] != node_ids.size:
            raise ShapeError(
                f"labels rows {labels.shape[0]} != batch size {node_ids.size}"
            )
    adj_s = _restrict(g.adjacency, node_ids)
    return SubgraphBatch(
        node_ids=node_ids,
        prop_s=_renorm_prop(adj_s),
        features=features,
        labels=labels,
    )


def node_estimate(v: int, g: Graph, subgraph: SubgraphBatch, h_prev,
                  p: LayerParams, e=1.0) -> np.ndarray:
    """Aggregation estimate for one vertex from a sampled batch.

    Sums the entries of g's propagation over batch members, each divided by
    its normalization constant e_uv, then applies the layer weights:
    sum_u prop[u, v] / e[u, v] * h_prev[u] @ W + b. ``e`` is either a scalar
    (e == 1 everywhere) or a dense (n, n) array indexed by global vertex ids.
    """
    if p.kind != "graph_conv":
        raise ContractError(f"node_estimate needs graph_conv params, got "
                            f"{p.kind!r}")
    ids = subgraph.node_ids
    if ids.max() >= g.n:
        raise ContractError(f"batch vertex {int(ids.max())} is out of range "
                            f"for graph of order {g.n}")
    where = np.nonzero(ids == v)[0]
    if where.size == 0:
        raise ContractError(f"vertex {v} is not in the sampled batch")
    h_prev = np.asarray(h_prev, dtype=np.float64)
    col = _restrict(g.prop, ids).to_dense()[:, int(where[0])]
    if np.isscalar(e):
        e_col = np.full(ids.size, float(e))
    else:
        e = np.asarray(e, dtype=np.float64)
        e_col = e[ids, v]
    bad = (col != 0.0) & (e_col <= 0.0)
    if bad.any():
        u = int(ids[int(np.argmax(bad))])
        raise ContractError(
            f"normalization constant e[{u}, {v}] is not positive"
        )
    coef = np.divide(col, e_col, out=np.zeros_like(col), where=col != 0.0)
    return coef @ h_prev[ids] @ p.weights + p.bias


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
    budget: int
    trials: int
    seed: object


def estimator_bias_diagnostic(g: Graph, m: int, trials: int, seed,
                              features=None, weight=None, bias=0.0
                              ) -> BiasReport:
    """Monte-Carlo bias measurement of the aggregation estimator.

    Draws ``trials`` independent epoch partitions with budget ``m``, runs
    the per-vertex estimator on every batch under both normalization modes,
    and reports mean/bias/variance/stderr per vertex against the exact
    full-batch aggregation. Deterministic for a fixed seed.
    """
    if trials < 2:
        raise ContractError(f"trials must be >= 2, got {trials}")
    n = g.n
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
    b = float(bias)

    prop = g.prop.to_dense()
    target = prop @ z + b

    # trial partitions come from spawned child seeds so the stream is
    # reproducible without storing every permutation twice
    children = np.random.SeedSequence(_entropy_for(seed)).spawn(trials)
    assign = np.empty((trials, n), dtype=np.int32)
    for t in range(trials):
        part = partition_epoch(n, m, children[t])
        for bi, batch in enumerate(part.batches):
            assign[t, batch] = bi

    # co-occurrence counts; diagonal counts vertex occurrences (= trials)
    counts = np.zeros((n, n))
    for t in range(trials):
        onehot = assign[t][:, None] == assign[t][None, :]
        counts += onehot
    e_freq = counts / float(trials)

    # accumulate deviations from the target rather than raw estimates:
    # the shifted one-pass variance keeps its precision even when the
    # spread is tiny next to the level (full-budget runs are exact)
    sums = {"uniform": np.zeros(n), "frequency": np.zeros(n)}
    sqs = {"uniform": np.zeros(n), "frequency": np.zeros(n)}
    n_batches = -(-n // m)
    for t in range(trials):
        for bi in range(n_batches):
            s = np.nonzero(assign[t] == bi)[0]
            sub = prop[np.ix_(s, s)]
            zs = z[s]
            dev_u = sub.T @ zs + b - target[s]
            ef = e_freq[np.ix_(s, s)]
            dev_f = (sub / ef).T @ zs + b - target[s]
            sums["uniform"][s] += dev_u
            sqs["uniform"][s] += dev_u ** 2
            sums["frequency"][s] += dev_f
            sqs["frequency"][s] += dev_f ** 2

    modes = {}
    for mode in ("uniform", "frequency"):
        dev_mean = sums[mode] / trials
        var = (sqs[mode] - trials * dev_mean ** 2) / (trials - 1)
        var = np.maximum(var, 0.0)
        modes[mode] = BiasStats(
            mc_mean=target + dev_mean,
            bias=dev_mean,
            variance=var,
            stderr=np.sqrt(var / trials),
        )
    return BiasReport(
        vertex_ids=np.arange(n),
        target=target,
        modes=modes,
        budget=m,
        trials=trials,
        seed=seed,
    )


def _entropy_for(seed):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        return seed.entropy
    raise ContractError(f"diagnostic seed must be an int or SeedSequence, "
                        f"got {type(seed).__name__}")


BIAS_CSV_FIELDS = ("vertex_id", "target", "mc_mean", "bias", "stderr", "mode")


def write_bias_csv(report: BiasReport, fh) -> None:
    """Emit the diagnostic as CSV, one row per (vertex, mode)."""
    writer = csv.writer(fh)
    writer.writerow(BIAS_CSV_FIELDS)
    for mode, stats in report.modes.items():
        for i in report.vertex_ids:
            writer.writerow([
                int(i),
                repr(float(report.target[i])),
                repr(float(stats.mc_mean[i])),
                repr(float(stats.bias[i])),
                repr(float(stats.stderr[i])),
                mode,
            ])
