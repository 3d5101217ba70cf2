import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_graph
from mgk.errors import ContractError, ShapeError
from mgk.graph import (build_knn_rbf_graph, chebyshev_scaled, laplacian,
                       sym_normalized_laplacian)
from mgk.linalg import symmetric_eigendecomposition
from mgk.spectral import (chebyshev_filter, first_order_as_chebyshev,
                          first_order_filter, spectral_filter)


def test_filters_refuse_empty_or_non_finite_coefficients():
    lap = laplacian(random_graph(np.random.default_rng(0), 2)[0])
    for theta in ([], [1.0, np.nan], [np.inf, 1.0]):
        for route in (spectral_filter, chebyshev_filter):
            with pytest.raises(ContractError, match="coefficient"):
                route(np.ones(2), theta, lap)


def test_spectral_filter_identity():
    rng = np.random.default_rng(1)
    g, _ = random_graph(rng, 5)
    f = rng.normal(size=(5, 1))
    filt = np.ones(5)
    out = spectral_filter(f, filt, laplacian(g))
    assert np.max(np.abs(out - f)) <= 1e-9


def test_spectral_filter_lambda_equals_laplacian_multiply():
    rng = np.random.default_rng(2)
    g, _ = random_graph(rng, 7)
    lap = laplacian(g)
    pair = symmetric_eigendecomposition(lap)
    f = rng.normal(size=(7, 1))
    filt = pair.values.copy()
    assert np.max(np.abs(spectral_filter(f, filt, lap)
                         - lap.matmul(f))) <= 1e-8
    filt2 = pair.values ** 2
    assert np.max(np.abs(spectral_filter(f, filt2, lap)
                         - lap.matmul(lap.matmul(f)))) <= 1e-8


def test_spectral_filter_length_mismatch():
    rng = np.random.default_rng(3)
    g, _ = random_graph(rng, 5)
    filt = np.ones(4)
    with pytest.raises(ShapeError):
        spectral_filter(np.zeros((5, 1)), filt, laplacian(g))


@given(st.integers(0, 2**32 - 1))
def test_polynomial_filter_equivalence(seed):
    # filtering with g(lambda) = p(lambda) equals applying p(L) directly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    g, _ = random_graph(rng, n)
    lap = laplacian(g)
    pair = symmetric_eigendecomposition(lap)
    coefs = rng.normal(size=int(rng.integers(1, 5)))
    f = rng.normal(size=(n, 1))
    filt = np.polyval(coefs, pair.values)
    direct = np.zeros((n, 1))
    for c in coefs:  # Horner on the operator
        direct = lap.matmul(direct) + c * f
    assert np.max(np.abs(spectral_filter(f, filt, lap) - direct)) <= 1e-8


def test_chebyshev_low_orders():
    rng = np.random.default_rng(4)
    g, _ = random_graph(rng, 6)
    lt = chebyshev_scaled(sym_normalized_laplacian(g), 2.0)
    f = rng.normal(size=(6, 1))
    k0 = np.array([1.0])
    assert np.max(np.abs(chebyshev_filter(f, k0, lt) - f)) <= 1e-15
    k1 = np.array([0.0, 1.0])
    assert np.max(np.abs(chebyshev_filter(f, k1, lt)
                         - lt.matmul(f))) <= 1e-15


@given(st.integers(0, 2**32 - 1))
def test_chebyshev_matches_exact_spectral(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 12))
    g, _ = random_graph(rng, n)
    lt = chebyshev_scaled(sym_normalized_laplacian(g), 2.0)
    theta = rng.normal(size=4)  # K = 3
    f = rng.normal(size=(n, 1))
    approx = chebyshev_filter(f, theta, lt)
    pair = symmetric_eigendecomposition(lt)
    lam = pair.values
    t_prev, t_cur = np.ones_like(lam), lam.copy()
    diag = theta[0] * t_prev + theta[1] * t_cur
    for coef in theta[2:]:
        t_prev, t_cur = t_cur, 2.0 * lam * t_cur - t_prev
        diag += coef * t_cur
    exact = spectral_filter(f, diag, lt)
    assert np.max(np.abs(approx - exact)) <= 1e-8


def test_chebyshev_warns_outside_unit_spectrum():
    rng = np.random.default_rng(5)
    g, _ = random_graph(rng, 6)
    lsym = sym_normalized_laplacian(g)  # spectrum in [0, 2], radius > 1
    filt = np.array([0.5, 0.5])
    with pytest.warns(RuntimeWarning):
        chebyshev_filter(np.ones((6, 1)), filt, lsym)


def test_chebyshev_convergence_monotone():
    rng = np.random.default_rng(6)
    g, _ = random_graph(rng, 10)
    lt = chebyshev_scaled(sym_normalized_laplacian(g), 2.0)
    pair = symmetric_eigendecomposition(lt)
    target = np.exp(-2.0 * (pair.values + 1.0))  # smooth filter response
    f = rng.normal(size=(10, 1))
    want = spectral_filter(f, target, lt)
    # Chebyshev-series coefficients of exp(-2(x+1)) via Gauss-Chebyshev
    nodes = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
    fx = np.exp(-2.0 * (nodes + 1.0))
    errs = []
    for order in (1, 3, 5, 8):
        coefs = []
        for k in range(order + 1):
            tk = np.cos(k * np.arccos(nodes))
            scale = 1.0 if k == 0 else 2.0
            coefs.append(scale * np.mean(fx * tk))
        out = chebyshev_filter(f, np.array(coefs), lt)
        errs.append(np.max(np.abs(out - want)))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_first_order_hand_case():
    g = build_knn_rbf_graph(np.zeros((2, 1)), 1, 1.0)  # unit edge, D = I
    out = first_order_filter(np.array([[1.0], [0.0]]), 1.0, g)
    assert np.allclose(out, [[1.0], [1.0]], atol=1e-12)
    assert np.allclose(first_order_filter(np.ones((2, 1)), 0.0, g), 0.0)


@given(st.integers(0, 2**32 - 1))
def test_first_order_linearity(seed):
    rng = np.random.default_rng(seed)
    g, _ = random_graph(rng, 7)
    f1 = rng.normal(size=(7, 1))
    f2 = rng.normal(size=(7, 1))
    a, b = rng.normal(size=2)
    combined = first_order_filter(a * f1 + b * f2, 1.3, g)
    split = (a * first_order_filter(f1, 1.3, g)
             + b * first_order_filter(f2, 1.3, g))
    assert np.max(np.abs(combined - split)) <= 1e-10
    assert np.max(np.abs(first_order_filter(f1, 2.0 * 1.3, g)
                         - 2.0 * first_order_filter(f1, 1.3, g))) <= 1e-10


@given(st.integers(0, 2**32 - 1))
def test_first_order_equals_tied_chebyshev(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 20))
    g, _ = random_graph(rng, n)
    theta = float(rng.normal())
    f = rng.normal(size=(n, 1))
    lt = chebyshev_scaled(sym_normalized_laplacian(g), 2.0)
    tied = chebyshev_filter(f, first_order_as_chebyshev(theta), lt)
    direct = first_order_filter(f, theta, g)
    assert np.max(np.abs(tied - direct)) <= 1e-10
