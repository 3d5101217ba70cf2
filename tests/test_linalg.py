import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_same_triplets, dense_to_sparse, lexsort_canonical
from mgk.data import normalize_bands, synth_scene
from mgk.errors import ContractError, ShapeError
from mgk.graph import (build_knn_rbf_graph, laplacian,
                       renormalized_propagation)
from mgk.linalg import SparseSymMatrix, symmetric_eigendecomposition


def test_sparse_rejects_duplicate_entries():
    with pytest.raises(ContractError):
        SparseSymMatrix(dim=2, rows=np.array([0, 1, 0]),
                        cols=np.array([1, 0, 1]),
                        vals=np.array([1.0, 1.0, 2.0]))


@pytest.mark.parametrize("rows, cols", [
    ([0, 0, 1], [1, 1, 2]),  # canonical order
    ([1, 0, 0], [2, 1, 1]),  # needs a sort
    ([0, 1, 0], [1, 0, 1]),  # needs a sort, one entry flipped
])
def test_duplicate_error_is_the_same_sorted_or_not(rows, cols):
    with pytest.raises(ContractError, match=r"^duplicate entry at \(0, 1\)$"):
        SparseSymMatrix(3, rows, cols, [1.0, 2.0, 3.0])


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40),
       st.sampled_from(["random", "empty", "diagonal"]),
       st.sampled_from(["canonical", "shuffled", "flipped"]), st.booleans())
def test_constructor_matches_the_lexsort_reference(seed, n, pattern, order,
                                                   duplicate):
    rng = np.random.default_rng(seed)
    if pattern == "empty":
        rr = cc = np.zeros(0, dtype=np.int64)
    elif pattern == "diagonal":
        rr = cc = np.arange(n)
    else:
        rr, cc = np.nonzero(np.triu(rng.random((n, n)) < rng.random()))
    vals = rng.normal(size=rr.size)
    vals[rng.random(rr.size) < 0.1] = -0.0
    if duplicate and rr.size:
        j = int(rng.integers(rr.size))
        rr, cc = np.insert(rr, j, rr[j]), np.insert(cc, j, cc[j])
        vals = np.insert(vals, j, 1.0)
    if order == "shuffled":
        perm = rng.permutation(rr.size)
        rr, cc, vals = rr[perm], cc[perm], vals[perm]
    elif order == "flipped":  # canonical order, some entries as (col, row)
        flip = rng.random(rr.size) < 0.5
        rr, cc = np.where(flip, cc, rr), np.where(flip, rr, cc)
    try:
        want = lexsort_canonical(n, rr, cc, vals)
    except ContractError as err:
        with pytest.raises(ContractError) as got:
            SparseSymMatrix(n, rr, cc, vals)
        assert str(got.value) == str(err)
        return
    assert_same_triplets(SparseSymMatrix(n, rr, cc, vals), want)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]])
def test_constructor_leaves_the_callers_arrays_alone(order):
    rows = np.array([0, 0, 1], dtype=np.int64)[order]
    cols = np.array([0, 2, 1], dtype=np.int64)[order]
    vals = np.array([1.0, 2.0, 3.0])[order]
    s = SparseSymMatrix(3, rows, cols, vals)
    for arg, stored in ((rows, s.rows), (cols, s.cols), (vals, s.vals)):
        assert arg.flags.writeable
        assert not np.shares_memory(arg, stored)


def test_sparse_canonicalizes_lower_triangle():
    s = SparseSymMatrix(dim=3, rows=np.array([2, 1]), cols=np.array([0, 1]),
                        vals=np.array([5.0, 2.0]))
    dense = s.to_dense()
    assert dense[0, 2] == 5.0 and dense[2, 0] == 5.0
    assert dense[1, 1] == 2.0


def test_sparse_identity_and_diagonal():
    eye = SparseSymMatrix.identity(4)
    assert np.array_equal(eye.to_dense(), np.eye(4))
    assert np.array_equal(eye.diagonal(), np.ones(4))
    assert np.array_equal(eye.row_sums(), np.ones(4))


def addat_matmul(s, b):
    """The scatter product the jagged-diagonal plan replaced, kept as the
    bitwise reference: stored entries, then mirrors, in storage order."""
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    out = np.zeros((s.dim, b.shape[1]))
    np.add.at(out, s.rows, s.vals[:, None] * b[s.cols])
    off = s.rows != s.cols
    np.add.at(out, s.cols[off], s.vals[off][:, None] * b[s.rows[off]])
    return out[:, 0] if squeeze else out


def assert_matches_scatter_product(s, b):
    want = addat_matmul(s, b)
    first = s.matmul(b)
    plan = s._plan
    assert first.shape == want.shape
    assert np.array_equal(first, want)
    again = s @ b
    assert s._plan is plan
    assert np.array_equal(again, want)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40),
       st.sampled_from(["random", "empty", "diagonal"]),
       st.sampled_from([None, 0, 1, 3, 8]))
def test_matmul_is_bitwise_the_scatter_product(seed, n, pattern, width):
    rng = np.random.default_rng(seed)
    if pattern == "empty":
        rr = cc = np.zeros(0, dtype=np.int64)
    elif pattern == "diagonal":
        rr = cc = np.arange(n)
    else:
        upper = np.triu(rng.random((n, n)) < rng.random())
        gone = rng.random(n) < 0.2  # rows (and columns) left without terms
        upper[gone, :] = upper[:, gone] = False
        rr, cc = np.nonzero(upper)
    vals = rng.normal(size=rr.size) * 10.0 ** rng.uniform(-3, 3, rr.size)
    vals[rng.random(rr.size) < 0.1] = -0.0
    flip = rng.random(rr.size) < 0.5  # hand some entries in as (col, row)
    shuffle = rng.permutation(rr.size)
    s = SparseSymMatrix(n, np.where(flip, cc, rr)[shuffle],
                        np.where(flip, rr, cc)[shuffle], vals[shuffle])
    shape = (n,) if width is None else (n, width)
    b = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    assert_matches_scatter_product(s, b)


def test_matmul_is_bitwise_the_scatter_product_on_a_scene_graph():
    cube, _, _ = synth_scene(classes=4, size=24, bands=8, noise_sigma=0.02,
                             seed=5)
    feats = normalize_bands(cube).values.reshape(-1, 8).astype(np.float64)
    prop = renormalized_propagation(
        build_knn_rbf_graph(feats, 10, 1.0).adjacency)
    # every row has a self-loop, and hub rows carry many more than k terms,
    # so the plan has long and short rows and many ranks
    terms = np.bincount(np.concatenate(
        [prop.rows, prop.cols[prop.rows != prop.cols]]))
    assert np.all(prop.diagonal() > 0)
    assert terms.max() > 3 * 10
    rng = np.random.default_rng(0)
    assert_matches_scatter_product(prop, rng.normal(size=(prop.dim, 64)))
    assert_matches_scatter_product(prop, rng.normal(size=prop.dim))


def addat_row_sums(s):
    """Row sums as two scatters, stored entries and then mirrors, kept as
    the bitwise reference for the bincount over ``terms``."""
    out = np.zeros(s.dim)
    np.add.at(out, s.rows, s.vals)
    off = s.rows != s.cols
    np.add.at(out, s.cols[off], s.vals[off])
    return out


def mirror_to_dense(s):
    """The dense fill from stored entries and then their mirrors, kept as
    the reference for the fill from ``terms``."""
    out = np.zeros((s.dim, s.dim))
    out[s.rows, s.cols] = s.vals
    off = s.rows != s.cols
    out[s.cols[off], s.rows[off]] = s.vals[off]
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40),
       st.sampled_from(["random", "empty", "diagonal"]))
@example(0, 1, "random")
@example(0, 1, "diagonal")
@example(0, 1, "empty")
@example(3, 12, "diagonal")
def test_terms_readers_match_the_mirror_references_bitwise(seed, n, pattern):
    rng = np.random.default_rng(seed)
    if pattern == "empty":
        rr = cc = np.zeros(0, dtype=np.int64)
    elif pattern == "diagonal":
        rr = cc = np.arange(n)
    else:
        rr, cc = np.nonzero(np.triu(rng.random((n, n)) < rng.random()))
    vals = rng.normal(size=rr.size) * 10.0 ** rng.uniform(-3, 3, rr.size)
    vals[rng.random(rr.size) < 0.1] = -0.0
    shuffle = rng.permutation(rr.size)
    s = SparseSymMatrix(n, cc[shuffle], rr[shuffle], vals[shuffle])

    tgt, src, val = s.terms()
    off = s.rows != s.cols
    # the stored entries, then the mirror of each off-diagonal one
    assert np.array_equal(tgt, np.concatenate([s.rows, s.cols[off]]))
    assert np.array_equal(src, np.concatenate([s.cols, s.rows[off]]))
    assert same_bits(val, np.concatenate([s.vals, s.vals[off]]))
    assert same_bits(s.row_sums(), addat_row_sums(s))
    assert same_bits(s.to_dense(), mirror_to_dense(s))
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    summed = np.bincount(tgt, val * x[src], minlength=n).astype(np.float64)
    assert same_bits(summed, s.matmul(x))


def test_terms_readers_match_the_mirror_references_on_a_scene_graph():
    cube, _, _ = synth_scene(classes=4, size=24, bands=8, noise_sigma=0.02,
                             seed=5)
    feats = normalize_bands(cube).values.reshape(-1, 8).astype(np.float64)
    g = build_knn_rbf_graph(feats, 10, 1.0)
    for s in (g.adjacency, renormalized_propagation(g.adjacency)):
        tgt, src, val = s.terms()
        assert same_bits(s.row_sums(), addat_row_sums(s))
        assert same_bits(s.to_dense(), mirror_to_dense(s))
        x = np.random.default_rng(1).normal(size=s.dim)
        assert same_bits(np.bincount(tgt, val * x[src], minlength=s.dim),
                         s.matmul(x))


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1,
                                            max_size=6))
def test_diagonal_blocks_are_the_blocks_built_alone(seed, sizes):
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    whole = np.zeros((dim, dim))
    alone = []
    start = 0
    for size in sizes:
        block = rng.normal(size=(size, size)) * (
            rng.random((size, size)) < 0.5)
        block = block + block.T
        whole[start:start + size, start:start + size] = block
        alone.append(dense_to_sparse(block))
        start += size
    got = dense_to_sparse(whole).diagonal_blocks(sizes)
    assert len(got) == len(sizes)
    for block, want in zip(got, alone):
        assert block.dim == want.dim
        assert_same_triplets(block, (want.rows, want.cols, want.vals))


@pytest.mark.parametrize("sizes, match", [
    ([2, 2], "sum to 4, not dim=5"),
    ([2, 4], "sum to 6, not dim=5"),
    ([3, 0, 2], r"sizes must be >= 1, got \[3, 0, 2\]"),
    ([], r"sizes must be >= 1, got \[\]"),
    ([2, 3], r"entry \(1, 2\) crosses two blocks"),
])
def test_diagonal_blocks_refuse_a_bad_cut(sizes, match):
    s = SparseSymMatrix(5, [0, 1, 3], [1, 2, 4], [1.0, 2.0, 3.0])
    with pytest.raises(ContractError, match=match):
        s.diagonal_blocks(sizes)


def test_sparse_triplets_are_read_only():
    s = SparseSymMatrix(3, [0, 1], [1, 2], [1.0, 2.0])
    for a in (s.rows, s.cols, s.vals):
        with pytest.raises(ValueError):
            a[0] = 0


def test_multiply_identity_is_identity_map():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    assert np.allclose(SparseSymMatrix.identity(3) @ m, m)


def test_multiply_hand_cases():
    edge = SparseSymMatrix(dim=2, rows=np.array([0]), cols=np.array([1]),
                           vals=np.array([1.0]))
    out = edge @ np.array([[1.0], [0.0]])
    assert np.array_equal(out, [[0.0], [1.0]])


def test_multiply_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
        SparseSymMatrix.identity(2) @ np.ones((3, 1))


@given(st.integers(0, 2**32 - 1))
def test_multiply_matches_dense_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    a[np.abs(a) < 0.3] = 0.0
    s = dense_to_sparse(a)
    b = rng.normal(size=(n, int(rng.integers(1, 5))))
    assert np.allclose(s @ b, a @ b, atol=1e-12)


def test_eigen_identity():
    pair = symmetric_eigendecomposition(SparseSymMatrix.identity(2))
    assert np.allclose(pair.values, [1.0, 1.0])
    assert np.allclose(pair.vectors, np.eye(2))


def test_eigen_2x2_hand_case():
    pair = symmetric_eigendecomposition(
        dense_to_sparse(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(pair.values, [1.0, 3.0], atol=1e-10)


def test_eigen_path_graph_null_vector():
    feats = np.array([[0.0], [1.0], [2.0]])
    g = build_knn_rbf_graph(feats, 1, 1.0)
    pair = symmetric_eigendecomposition(laplacian(g))
    assert abs(pair.values[0]) <= 1e-10


def test_eigen_dim_cap():
    with pytest.raises(ContractError):
        symmetric_eigendecomposition(SparseSymMatrix.identity(5), dim_cap=4)


def test_eigen_sign_convention_deterministic():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(5, 5))
    s = (s + s.T) / 2
    a = symmetric_eigendecomposition(dense_to_sparse(s))
    b = symmetric_eigendecomposition(dense_to_sparse(s))
    assert np.array_equal(a.vectors, b.vectors)
    for j in range(5):
        col = a.vectors[:, j]
        lead = col[np.abs(col) > 1e-12][0]
        assert lead > 0


@given(st.integers(0, 2**32 - 1))
def test_eigen_reconstruction_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    s = rng.normal(size=(n, n))
    s = (s + s.T) / 2
    pair = symmetric_eigendecomposition(dense_to_sparse(s))
    u, lam = pair.vectors, pair.values
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-8
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - s)) <= 1e-8


@given(st.integers(0, 2**32 - 1))
def test_laplacian_eigenvalues_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    feats = rng.normal(size=(n, 2))
    g = build_knn_rbf_graph(feats, min(3, n - 1), 1.0)
    pair = symmetric_eigendecomposition(laplacian(g))
    assert pair.values[0] >= -1e-10
    assert abs(pair.values[0]) <= 1e-10
