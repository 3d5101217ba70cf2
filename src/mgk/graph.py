"""KNN/RBF graph construction and the Laplacian family used for filtering.

Vertices are feature vectors (pixels); edges connect each vertex to its k
nearest neighbors under squared euclidean distance, symmetrized by union,
with Gaussian weights exp(-d^2 / sigma^2). Distances are meant to be taken
on min-max normalized features (see data.normalize_bands); the builder does
not renormalize its input.

One builder takes ``(n, bands)`` features for one graph, or
``(C, c, bands)`` for C chunk graphs built at once as one block-diagonal
graph, vertex ``q*c + i`` being row i of chunk q; inference builds its
chunk graphs that way. The builder never holds an n x n array. It takes
Gram products over whole chunks, or rows of one chunk, at a time (at most
``KNN_GRAM_ENTRIES`` entries), each one batched ``matmul``. numpy takes a
whole chunk's product with its own transpose through syrk and then copies
the computed triangle to the other, so each row of a Gram buffer of c >=
128 columns is padded to an odd number of 64-byte lines: at a power-of-two
row stride (8 KiB at c = 1024) that copy thrashes the cache. A BLAS may
round a Gram entry differently in a product of another row count
(OpenBLAS 0.3.31 does for chunk sizes c that are not a multiple of 8), so
that constant fixes the output bits. The distance work on a Gram block
(fill, k-th distance partition, candidate selection) runs in sub-blocks
of at most ``KNN_BLOCK_ENTRIES`` entries that stay in cache, each filled
into one reused buffer; it is row-local, so the output does not depend
on that constant. Each row keeps its k nearest (lower vertex index first
among equal distances); a block's candidates are sorted only when a tie
at some row's k-th distance gives that row more than k. Each edge is
weighted from the distance its block computed.

A ``Graph`` is its order and adjacency. Graph convolution propagates
through ``renormalized_propagation`` of an adjacency (self-loops added,
degrees renormalized), which its users compute where they need it: on
each training batch's induced adjacency, and on each inference chunk's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .linalg import SparseSymMatrix

# Gram entries per batched product of the KNN build (one row if a chunk is
# larger), 8 MiB of float64 before each row's padding. The product's bits
# may depend on its row count, so changing this may change the graph's bits.
KNN_GRAM_ENTRIES = 1 << 20
# Distances per sub-block of a Gram block: 1 MiB of float64 per temporary,
# so the distance buffer and the partition's copy stay in a core's L2. The
# graph's bits do not depend on it.
KNN_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class Graph:
    """An undirected weighted graph: its order and its adjacency. Degrees
    and operators are computed from the adjacency where they are used."""

    n: int
    adjacency: SparseSymMatrix


def build_knn_rbf_graph(features, k: int, sigma: float) -> Graph:
    """Build the union-symmetrized KNN graph with RBF edge weights.

    ``features`` is one graph's ``(n, bands)`` vertices, or ``(C, c, bands)``
    for C graphs of c vertices each, built as one: vertex ``q*c + i`` is row
    i of chunk q, neighbours are chosen within each chunk only, and the
    result is one ``Graph`` of ``C*c`` vertices whose adjacency is
    block-diagonal, block q bitwise the graph of chunk q built alone.

    Each vertex selects its k nearest other vertices; an edge exists if
    either endpoint selected the other. Among equal distances the lower
    vertex index wins, and duplicates at distance zero count against the k
    budget with weight 1: the selection is the first k of each row's stable
    sort by distance. Gram products are taken in blocks of at most
    ``KNN_GRAM_ENTRIES``, distances in sub-blocks of at most
    ``KNN_BLOCK_ENTRIES``: whole chunks while one chunk's rows fit, row
    ranges of one chunk (one row if c is larger) otherwise, so memory is
    O(n * k) plus one Gram block and one sub-block, never n x n. An edge's
    weight comes from the distance in the row of its lower endpoint when
    that endpoint selected it, and from the other endpoint's row otherwise.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError("features must be (n, bands) or (C, c, bands), "
                         f"got shape {x.shape}")
    size = "n" if x.ndim == 2 else "c"
    if x.ndim == 2:
        x = x[None]
    chunks, c = x.shape[:2]
    if chunks < 1:
        raise ShapeError(f"features hold no chunks, got shape {x.shape}")
    if c < 2:
        raise ContractError(f"need at least 2 vertices, got {size}={c}")
    if not (1 <= k < c):
        raise ContractError(
            f"k must satisfy 1 <= k < {size}, got k={k}, {size}={c}")
    if not (sigma > 0):
        raise ContractError(f"sigma must be positive, got {sigma}")
    if not np.all(np.isfinite(x)):
        raise ContractError("features must be finite")

    n = chunks * c
    dst, dist = _knn_edges(x, k)
    src = np.repeat(np.arange(n), k)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    # the first occurrence of a pair is in the row of the first endpoint
    # that selected it, since edges are listed in row order
    keys, first = np.unique(lo * n + hi, return_index=True)
    w = np.exp(-dist[first] / (sigma * sigma))

    adj = SparseSymMatrix(n, keys // n, keys % n, w)
    return Graph(n=n, adjacency=adj)


def _knn_edges(x, k: int) -> tuple:
    """Each vertex's k nearest other vertices of its chunk in ``(C, c,
    bands)`` features x, and their distances: ``(dst, dist)``, k entries per
    vertex in vertex order.

    The Gram buffer is freed on return, before the caller allocates the
    graph, so that the graph can take its place: an array allocated above it
    on the heap would keep its memory (up to 8 MiB) resident after it is
    freed.
    """
    chunks, c = x.shape[:2]
    sq = np.sum(x * x, axis=2)
    dst = np.empty(chunks * c * k, dtype=np.int64)
    dist = np.empty(chunks * c * k)
    blocks = _blocks(chunks, c, c, KNN_GRAM_ENTRIES)
    # buffers sized for the first (largest) Gram block and sub-block hold
    # each block and sub-block in turn, so that two are never alive at once
    q0, q1, start, stop = blocks[0]
    # rows of 16 or more 64-byte lines are padded to an odd number of lines
    # (see the module docstring); shorter rows stay contiguous, which their
    # sub-block arithmetic runs faster on
    width = c if c < 128 else 8 * (-(-c // 8) | 1)
    buffer = np.empty((q1 - q0, stop - start, width))
    p0, p1, s0, s1 = _blocks(q1 - q0, stop - start, c, KNN_BLOCK_ENTRIES)[0]
    fill = np.empty((p1 - p0) * (s1 - s0) * c)
    for q0, q1, start, stop in blocks:
        xb = x[q0:q1]
        rows = xb[:, start:stop]
        # a whole chunk's product is a syrk, doubled per sub-block below; a
        # row range's is a gemm, which takes the exact doubling of its rows
        whole = stop - start == c
        gram = np.matmul(rows if whole else 2.0 * rows, xb.transpose(0, 2, 1),
                         out=buffer[:q1 - q0, :stop - start, :c])
        sq_cols = sq[q0:q1, None, :]
        sq_rows = sq[q0:q1, start:stop, None]
        for p0, p1, s0, s1 in _blocks(q1 - q0, stop - start, c,
                                      KNN_BLOCK_ENTRIES):
            # one row per vertex of the sub-block, one column per vertex of
            # its chunk: (sq_i + sq_j) - 2 gram, summed in that order
            g = gram[p0:p1, s0:s1]
            if whole:
                g *= 2.0
            d2 = fill[:g.size].reshape(g.shape)
            np.add(sq_rows[p0:p1, s0:s1], sq_cols[p0:p1], out=d2)
            d2 -= g
            d2 = d2.reshape(-1, c)
            v0 = (q0 + p0) * c + start + s0  # the sub-block's first vertex
            r, col, d = _nearest(d2, k, start + s0)
            r += v0
            edges = slice(v0 * k, (v0 + d2.shape[0]) * k)
            dst[edges] = col + r - r % c
            dist[edges] = d
    return dst, dist


def _blocks(chunks: int, rows: int, c: int, entries: int) -> list:
    """Blocks ``(q0, q1, start, stop)`` of rows ``start:stop`` of chunks
    ``q0:q1``, over ``chunks`` chunks of ``rows`` rows of c entries each:
    whole chunks while one chunk's rows fit in ``entries``, else row ranges
    of one chunk (one row if c is larger)."""
    if rows * c <= entries:
        per_block = entries // (rows * c)
        return [(q, min(q + per_block, chunks), 0, rows)
                for q in range(0, chunks, per_block)]
    step = max(1, entries // c)
    return [(q, q + 1, start, min(start + step, rows))
            for q in range(chunks) for start in range(0, rows, step)]


def _nearest(d2, k: int, start: int) -> tuple:
    """Row-local row, column and distance of each row's k nearest other
    vertices in ``d2``, whose row i is vertex ``start + i`` of a chunk of
    ``d2.shape[1]`` vertices, with distances clamped at 0. Sets each row's
    own entry to inf.

    Clamping is monotone, so clamping the k-th distance and the kept ones
    selects what clamping the whole of ``d2`` would, with the same bits.

    Rows come in order. Within a row the order is the columns' when no
    block row has a tie at its k-th distance, and the distances' otherwise;
    the caller does not see the difference, since a row lists each of its
    edges once.
    """
    local = np.arange(d2.shape[0])
    d2[local, (start + local) % d2.shape[1]] = np.inf
    # every row has at least k candidates at or below its k-th distance,
    # listed in row order, columns ascending (from flat indices: a 2-D
    # nonzero takes several times as long)
    kth = np.maximum(np.partition(d2, k - 1, axis=1)[:, k - 1], 0.0)
    r, col = np.divmod(np.flatnonzero(d2 <= kth[:, None]), d2.shape[1])
    d = np.maximum(d2[r, col], 0.0)
    if r.size > k * d2.shape[0]:
        # a tie at some row's k-th distance: a stable sort of the
        # candidates by distance keeps the lower index among ties, as a
        # stable sort of the whole row would
        order = np.lexsort((col, d, r))
        r, col, d = r[order], col[order], d[order]
        keep = np.arange(r.size) - np.searchsorted(r, r) < k
        r, col, d = r[keep], col[keep], d[keep]
    return r, col, d


def _with_diagonal(a: SparseSymMatrix, off_vals, idx, diag_vals
                   ) -> SparseSymMatrix:
    """a's pattern with values off_vals, plus diagonal entries diag_vals at
    the sorted rows idx, none of which may have a stored diagonal entry.

    Each new entry is first in its row, so merging it in at
    ``searchsorted(a.rows, idx)`` keeps the triplets canonical: the
    constructor takes them without a sort.
    """
    at = np.searchsorted(a.rows, idx) + np.arange(idx.size)
    stored = np.ones(a.nnz + idx.size, dtype=bool)
    stored[at] = False
    merged = []
    for old, new in ((a.rows, idx), (a.cols, idx), (off_vals, diag_vals)):
        out = np.empty(stored.size, dtype=old.dtype)
        out[at] = new
        out[stored] = old
        merged.append(out)
    return SparseSymMatrix(a.dim, *merged)


def laplacian(g: Graph) -> SparseSymMatrix:
    """Combinatorial Laplacian L = D - A."""
    a = g.adjacency
    return _with_diagonal(a, -a.vals, np.arange(g.n), a.row_sums())


def _normalized_adjacency(g: Graph) -> SparseSymMatrix:
    """D^{-1/2} A D^{-1/2}; requires strictly positive degrees."""
    a = g.adjacency
    degree = a.row_sums()
    zero = np.nonzero(degree <= 0.0)[0]
    if zero.size:
        raise ContractError(
            f"vertex {int(zero[0])} has zero degree; cannot normalize"
        )
    inv_sqrt = 1.0 / np.sqrt(degree)
    return SparseSymMatrix(g.n, a.rows, a.cols,
                           a.vals * inv_sqrt[a.rows] * inv_sqrt[a.cols])


def sym_normalized_laplacian(g: Graph) -> SparseSymMatrix:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Every eigenvalue lands in [0, 2]. Requires strictly positive degrees.
    """
    s = _normalized_adjacency(g)
    return _with_diagonal(s, -s.vals, np.arange(g.n), np.ones(g.n))


def renormalized_propagation(adj: SparseSymMatrix) -> SparseSymMatrix:
    """Propagation operator of an adjacency with self-loops added and
    degrees renormalized: Dt^{-1/2}(A+I)Dt^{-1/2}, Dt = D + I."""
    if np.any(adj.diagonal() != 0.0):
        raise ContractError("adjacency must have a zero diagonal")
    inv_sqrt = 1.0 / np.sqrt(adj.row_sums() + 1.0)
    return _with_diagonal(
        adj, adj.vals * inv_sqrt[adj.rows] * inv_sqrt[adj.cols],
        np.arange(adj.dim), inv_sqrt * inv_sqrt)


def chebyshev_scaled(l_sym: SparseSymMatrix, lambda_max: float = 2.0
                     ) -> SparseSymMatrix:
    """Rescale a normalized Laplacian to (2/lambda_max) L - I.

    With the lambda_max = 2 convention this maps the spectrum into [-1, 1],
    the domain of the Chebyshev recurrence.
    """
    if not (lambda_max > 0):
        raise ContractError(f"lambda_max must be positive, got {lambda_max}")
    vals = l_sym.vals * (2.0 / lambda_max)
    on = l_sym.rows == l_sym.cols
    vals = np.where(on, vals - 1.0, vals)
    present = np.zeros(l_sym.dim, dtype=bool)
    present[l_sym.rows[on]] = True
    missing = np.nonzero(~present)[0]
    return _with_diagonal(l_sym, vals, missing, -np.ones(missing.size))
