"""Shared test helpers: finite-difference machinery and small graph builders."""

import os

# One BLAS thread, set before numpy loads OpenBLAS: with more, small
# products pay thread hand-off costs that swamp the timing tests' slopes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from hypothesis import settings

from mgk.errors import ContractError
from mgk.graph import build_knn_rbf_graph
from mgk.linalg import SparseSymMatrix

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

FD_H = 1e-5


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(1e-8, np.max(np.abs(analytic)), np.max(np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric)) / denom)


def fd_grad(loss_fn, arr, h=FD_H):
    """Central finite differences of a scalar loss wrt an array.

    loss_fn takes no arguments and must re-read arr on every call; the
    perturbation is applied in place and always undone.
    """
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def random_graph(rng, n, d=3, k=None, sigma=1.0):
    feats = rng.normal(size=(n, d))
    if k is None:
        k = min(3, n - 1)
    return build_knn_rbf_graph(feats, k, sigma), feats


def dense_to_sparse(a):
    """Pack a symmetric dense matrix into SparseSymMatrix storage."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(i, n):
            if a[i, j] != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(a[i, j])
    return SparseSymMatrix(dim=n, rows=np.array(rows, dtype=np.int64),
                           cols=np.array(cols, dtype=np.int64),
                           vals=np.array(vals, dtype=np.float64))


def lexsort_canonical(dim, rows, cols, vals):
    """Triplets in canonical order as the constructor made them with one
    (row, col) lexsort of any input, kept as the reference for its key
    check and sort."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    swap = rows > cols
    rows2 = np.where(swap, cols, rows)
    cols2 = np.where(swap, rows, cols)
    order = np.lexsort((cols2, rows2))
    rows2, cols2, vals = rows2[order], cols2[order], vals[order]
    if rows2.size > 1:
        dup = (rows2[1:] == rows2[:-1]) & (cols2[1:] == cols2[:-1])
        if dup.any():
            i = int(np.argmax(dup))
            raise ContractError(
                f"duplicate entry at ({rows2[i + 1]}, {cols2[i + 1]})"
            )
    return rows2, cols2, vals


def bits(a):
    """The float64 bit patterns of an array, for bitwise comparisons."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_triplets(s, want):
    """Bitwise equality of an operator's triplets with (rows, cols, vals)."""
    rows, cols, vals = want
    assert s.rows.dtype == np.int64 and s.cols.dtype == np.int64
    assert np.array_equal(s.rows, rows)
    assert np.array_equal(s.cols, cols)
    assert s.vals.dtype == np.float64
    assert np.array_equal(s.vals.view(np.uint64), vals.view(np.uint64))
