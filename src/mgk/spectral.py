"""Spectral filtering on graph signals.

Three routes from slowest/exact to cheapest/approximate:

* ``spectral_filter``     -- exact: eigendecompose L (a SparseSymMatrix,
                             densified), scale the transform coefficients,
                             transform back.
* ``chebyshev_filter``    -- polynomial approximation via the Chebyshev
                             recurrence on the rescaled operator; never
                             forms a dense polynomial of L.
* ``first_order_filter``  -- the single-parameter linear filter
                             theta (I + D^{-1/2} A D^{-1/2}).

A filter is its coefficient array theta; each route reads it its own way.
The exact route is the oracle the cheaper routes are tested against.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractError, ShapeError
from .graph import Graph, _normalized_adjacency
from .linalg import SparseSymMatrix, symmetric_eigendecomposition


def _coefficients(theta) -> np.ndarray:
    """Filter coefficients as a flat float64 array: non-empty and finite."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size == 0:
        raise ContractError("filter needs at least one coefficient")
    if not np.all(np.isfinite(theta)):
        raise ContractError("filter coefficients must be finite")
    return theta


def _as_signal(f, n: int) -> tuple[np.ndarray, bool]:
    f = np.asarray(f, dtype=np.float64)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    if f.ndim != 2 or f.shape[0] != n:
        raise ShapeError(f"signal shape {f.shape} does not match n={n}")
    return f, squeeze


def spectral_filter(f, theta, l: SparseSymMatrix) -> np.ndarray:
    """Exact filtering U diag(theta) U^T f via full eigendecomposition;
    theta holds one coefficient per eigenvalue."""
    theta = _coefficients(theta)
    eig = symmetric_eigendecomposition(l)
    n = eig.values.size
    if theta.size != n:
        raise ShapeError(f"exact-diagonal filter has {theta.size} "
                         f"coefficients for a graph of order {n}")
    sig, squeeze = _as_signal(f, n)
    out = eig.vectors @ (theta[:, None] * (eig.vectors.T @ sig))
    return out[:, 0] if squeeze else out


def _spectral_radius_estimate(op: SparseSymMatrix, iters=50) -> float:
    """Deterministic power-iteration bound used for the range warning."""
    v = np.ones(op.dim)
    v[0] += 0.5  # break symmetry with flat eigenvectors
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = op.matmul(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        lam = norm
        v = w / norm
    return float(lam)


def chebyshev_filter(f, theta, l_tilde: SparseSymMatrix) -> np.ndarray:
    """Polynomial filtering sum_k theta_k T_k(L~) f by vector recurrence.

    T_0 f = f, T_1 f = L~ f, T_k f = 2 L~ T_{k-1} f - T_{k-2} f; cost is
    O(K nnz) and no dense power of L~ is ever formed. L~ is expected to
    have spectrum inside [-1, 1]; a violation only degrades approximation
    quality, so it warns instead of failing. theta[k] weights T_k.
    """
    theta = _coefficients(theta)
    radius = _spectral_radius_estimate(l_tilde)
    if radius > 1.0 + 1e-6:
        warnings.warn(
            f"rescaled operator has spectral radius ~{radius:.6f} > 1; "
            "Chebyshev approximation quality is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    sig, squeeze = _as_signal(f, l_tilde.dim)
    t_prev = sig
    out = theta[0] * t_prev
    if theta.size > 1:
        t_cur = l_tilde.matmul(sig)
        out = out + theta[1] * t_cur
        for k in range(2, theta.size):
            t_next = 2.0 * l_tilde.matmul(t_cur) - t_prev
            out = out + theta[k] * t_next
            t_prev, t_cur = t_cur, t_next
    return out[:, 0] if squeeze else out


def first_order_filter(f, theta: float, g: Graph) -> np.ndarray:
    """Single-parameter filter theta (I + D^{-1/2} A D^{-1/2}) f.

    Uses the graph's raw degree normalization (no self-loops); the
    self-loop renormalized operator is a different animal, computed by
    ``graph.renormalized_propagation``.
    """
    theta = float(theta)
    if not np.isfinite(theta):
        raise ContractError("theta must be finite")
    s = _normalized_adjacency(g)
    sig, squeeze = _as_signal(f, g.n)
    out = theta * (sig + s.matmul(sig))
    return out[:, 0] if squeeze else out


def first_order_as_chebyshev(theta: float) -> np.ndarray:
    """The (theta, -theta) coefficient pair that reproduces the
    first-order filter through the K=1 Chebyshev route at lambda_max=2."""
    return np.array([theta, -theta])
