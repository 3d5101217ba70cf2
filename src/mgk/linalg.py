"""The sparse symmetric matrix and its exact eigendecomposition.

``SparseSymMatrix`` stores each entry of a symmetric matrix once
(row <= col) as read-only coordinate triplets in one canonical order, copies
of its inputs; triplets already in that order are taken without a sort;
``terms`` expands them into the full matrix, the stored entries then their
mirrors, for every method that reads it. ``diagonal_blocks`` cuts a
block-diagonal matrix into its blocks, each a shifted slice of the triplets,
so no block needs a sort. A product ``s @ b`` against a dense operand never
materializes the full matrix. The first product builds a jagged-diagonal
plan of the expanded matrix and caches it on the instance; every product is
then one gather and one contiguous add per term rank, summing each row in
``terms`` order, so results are bitwise the same whether the plan was just
built or cached. The ranks gather their terms into one buffer per product.

The eigendecomposition is LAPACK's ``eigh`` (through numpy) of a densified
``SparseSymMatrix`` plus a fixed eigenvector sign rule. It is the exact
reference that spectral filtering is checked against; a dimension cap bounds
its n x n copy, and it is meant for verification, not training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_EIG_DIM_CAP = 2048


class SparseSymMatrix:
    """Symmetric matrix stored as upper-triangle coordinate triplets.

    Entries with row < col represent the pair of mirror off-diagonal values;
    diagonal entries are stored once. Triplets are kept sorted by (row, col)
    so identical matrices have identical storage, which keeps everything
    downstream deterministic; input whose keys ``min(r, c) * dim + max(r, c)``
    already increase strictly is in that order and skips the sort. The
    triplets are read-only copies of the inputs: ``matmul`` caches a plan
    derived from them, which a write would leave stale.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_plan")

    def __init__(self, dim, rows, cols, vals):
        dim = int(dim)
        if dim < 1:
            raise ContractError(f"dim must be >= 1, got {dim}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeError(
                f"triplet arrays disagree: rows {rows.shape}, cols {cols.shape}, "
                f"vals {vals.shape}"
            )
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        if lo.size and (lo.min() < 0 or hi.max() >= dim):
            raise ContractError(f"triplet indices out of range for dim={dim}")
        if not np.all(np.isfinite(vals)):
            raise ContractError("matrix entries must be finite")
        # equal keys are duplicates and raise, so the sort need not be stable
        key = lo * dim + hi
        if np.all(key[1:] > key[:-1]):
            vals = vals.copy()
        else:
            order = np.argsort(key)
            key = key[order]
            dup = key[1:] == key[:-1]
            if dup.any():
                i = int(np.argmax(dup)) + 1
                raise ContractError(
                    f"duplicate entry at ({lo[order[i]]}, {hi[order[i]]})"
                )
            lo, hi, vals = lo[order], hi[order], vals[order]
        for a in (lo, hi, vals):
            a.setflags(write=False)
        self.dim = dim
        self.rows = lo
        self.cols = hi
        self.vals = vals
        self._plan = None

    @classmethod
    def identity(cls, dim):
        idx = np.arange(dim)
        return cls(dim, idx, idx, np.ones(dim))

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def shape(self):
        return (self.dim, self.dim)

    def terms(self):
        """The full matrix as ``(tgt, src, val)``: entry (tgt, src) is val.

        Every stored entry, then the mirror of every off-diagonal one, each
        in storage order: the order in which ``matmul`` sums a row.
        """
        off = self.rows != self.cols
        return (np.concatenate([self.rows, self.cols[off]]),
                np.concatenate([self.cols, self.rows[off]]),
                np.concatenate([self.vals, self.vals[off]]))

    def to_dense(self) -> np.ndarray:
        tgt, src, val = self.terms()
        out = np.zeros((self.dim, self.dim))
        out[tgt, src] = val
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.dim)
        on = self.rows == self.cols
        out[self.rows[on]] = self.vals[on]
        return out

    def row_sums(self) -> np.ndarray:
        # terms()' tgt and val; float64 also where bincount gives ints
        off = self.rows != self.cols
        return np.bincount(np.concatenate([self.rows, self.cols[off]]),
                           np.concatenate([self.vals, self.vals[off]]),
                           self.dim).astype(np.float64, copy=False)

    def diagonal_blocks(self, sizes) -> list:
        """The diagonal blocks of a block-diagonal matrix, in order.

        Block q covers rows and columns ``[offset_q, offset_q + sizes[q])``.
        Storage is sorted by row, so its entries are the slice that starts
        at ``searchsorted(rows, offset_q)``, shifted by ``-offset_q``: still
        canonical, so each block is built without a sort; a single block is
        the matrix itself. Sizes that do not sum to ``dim``, and an entry
        outside every block, are refused.
        """
        sizes = np.asarray(sizes, dtype=np.int64).ravel()
        if sizes.size == 0 or sizes.min() < 1:
            raise ContractError(f"block sizes must be >= 1, got "
                                f"{sizes.tolist()}")
        if int(sizes.sum()) != self.dim:
            raise ContractError(f"block sizes sum to {int(sizes.sum())}, "
                                f"not dim={self.dim}")
        if sizes.size == 1:
            return [self]
        ends = np.cumsum(sizes)
        offsets = ends - sizes
        cuts = np.searchsorted(self.rows, np.append(offsets, self.dim))
        # rows <= cols, so an entry crosses when its col passes its block
        cross = self.cols >= np.repeat(ends, np.diff(cuts))
        if cross.any():
            i = int(np.argmax(cross))
            raise ContractError(f"entry ({self.rows[i]}, {self.cols[i]}) "
                                f"crosses two blocks")
        return [SparseSymMatrix(int(size), self.rows[a:b] - off,
                                self.cols[a:b] - off, self.vals[a:b])
                for size, off, a, b in zip(sizes, offsets, cuts[:-1],
                                           cuts[1:])]

    def _jagged_plan(self):
        """The expanded matrix in jagged-diagonal form, built once.

        Each target keeps its terms in ``terms`` order. Targets are
        permuted by term count, descending and stable, so the targets that
        have an r-th term are a prefix of that order. Returns
        ``(ranks, inverse)``: ``ranks[r]`` is ``(width, src, val)`` for the
        r-th terms of the first ``width`` permuted targets, and ``inverse``
        maps a row to its permuted position.
        """
        tgt, src, val = self.terms()
        order = np.argsort(tgt, kind="stable")
        tgt = tgt[order]
        count = np.bincount(tgt, minlength=self.dim)
        perm = np.argsort(-count, kind="stable")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.dim)
        rank = np.arange(tgt.size) - (np.cumsum(count) - count)[tgt]
        widths = np.bincount(rank)
        starts = np.cumsum(widths) - widths
        # jagged slot of each target-sorted term, composed with the sort
        jagged = np.empty_like(order)
        jagged[starts[rank] + inverse[tgt]] = order
        src, val = src[jagged], val[jagged, None]
        ranks = tuple((int(w), src[s:s + w], val[s:s + w])
                      for w, s in zip(widths, starts))
        return ranks, inverse

    def matmul(self, b: np.ndarray) -> np.ndarray:
        """self @ b for a dense vector/matrix b, in O(nnz * b.shape[1]).

        Each output row sums its terms, starting from 0.0, in ``terms`` order.
        The first call builds the jagged-diagonal plan (``_jagged_plan``: one
        stable sort of the up to 2·nnz terms and O(nnz) index work, kept as one
        int64 and one float64 per term) and caches it on the instance; each
        call then does one gather (into one buffer) and one contiguous add per
        term rank and one row gather at the end, so a cached and a fresh plan
        give bitwise-identical results. On a 4800-node KNN operator (k = 10)
        the plan costs less than half of one 64-column product, so an operator
        used twice, as in a training step's forward and backward pass, pays it
        once.
        """
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != self.dim:
            raise ShapeError(
                f"cannot multiply {self.shape} sparse by operand of shape "
                f"{np.asarray(b).shape}"
            )
        if self._plan is None:
            self._plan = self._jagged_plan()
        ranks, inverse = self._plan
        out = np.zeros((self.dim, b.shape[1]))
        # ranks come widest first; with in-range indices "clip" is unbuffered
        buffer = np.empty((ranks[0][0] if ranks else 0, b.shape[1]))
        for w, src, val in ranks:
            terms = np.take(b, src, axis=0, out=buffer[:w], mode="clip")
            terms *= val
            out[:w] += terms
        out = out[inverse]
        return out[:, 0] if squeeze else out

    def __matmul__(self, b) -> np.ndarray:
        # looked up per call, so a wrapper put on ``matmul`` also sees ``@``
        return self.matmul(b)

    def __repr__(self):
        return f"SparseSymMatrix(dim={self.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition result: ``vectors[:, i]`` pairs with ``values[i]``."""

    vectors: np.ndarray
    values: np.ndarray


def symmetric_eigendecomposition(s: SparseSymMatrix, *,
                                 dim_cap=DEFAULT_EIG_DIM_CAP) -> EigenPair:
    """Full eigendecomposition of a SparseSymMatrix by LAPACK ``eigh``.

    Eigenvalues are returned in ascending order; each eigenvector is signed
    so its first component of magnitude > 1e-12 is positive, making the
    decomposition fully deterministic. ``dim_cap`` is checked before the
    matrix is densified: that copy and the solver hold n x n float64
    arrays, so the cap bounds their memory on a route meant for
    verification, not for training-sized graphs.
    """
    if s.dim > dim_cap:
        raise ContractError(
            f"dimension {s.dim} exceeds the eigensolver cap {dim_cap}"
        )
    values, vectors = np.linalg.eigh(s.to_dense())
    # sign convention: first component with |x| > 1e-12 made positive;
    # every column has unit norm, so every column has one
    for col in vectors.T:
        if col[np.abs(col) > 1e-12][0] < 0.0:
            col *= -1.0
    return EigenPair(vectors=vectors, values=values)
