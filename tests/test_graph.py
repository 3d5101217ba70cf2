import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mgk.graph
from conftest import assert_same_triplets, lexsort_canonical
from mgk.errors import ContractError, ShapeError
from mgk.graph import (Graph, build_knn_rbf_graph, chebyshev_scaled,
                       laplacian, renormalized_propagation,
                       sym_normalized_laplacian)
from mgk.linalg import SparseSymMatrix, symmetric_eigendecomposition


def argsort_knn_rbf_graph(features, k, sigma):
    """Reference builder: stable-sorts every row of the dense n x n
    distance matrix and keeps the first k."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    src = np.repeat(np.arange(n), k)
    dst = nearest.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    w = np.exp(-d2[pairs[:, 0], pairs[:, 1]] / (sigma * sigma))
    adj = SparseSymMatrix(n, pairs[:, 0], pairs[:, 1], w)
    return adj, renormalized_propagation(adj)


def two_node_graph(dist=1.0, sigma=1.0):
    feats = np.array([[0.0], [dist]])
    return build_knn_rbf_graph(feats, 1, sigma)


def test_identical_rows_give_unit_weight():
    g = build_knn_rbf_graph(np.zeros((2, 3)), 1, 1.0)
    assert g.adjacency.nnz == 1
    assert g.adjacency.to_dense()[0, 1] == 1.0


def test_rbf_weight_at_sigma_distance():
    g = two_node_graph(dist=2.0, sigma=2.0)
    assert g.adjacency.to_dense()[0, 1] == pytest.approx(math.exp(-1.0),
                                                         abs=1e-12)


def test_knn_matches_brute_force_all_pairs():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(5, 2))
    g = build_knn_rbf_graph(feats, 2, 1.0)
    d2 = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    want = set()
    for i in range(5):
        for j in np.argsort(d2[i], kind="stable")[:2]:
            want.add((min(i, int(j)), max(i, int(j))))
    got = set(zip(g.adjacency.rows.tolist(), g.adjacency.cols.tolist()))
    assert got == want
    for i, j in want:
        assert g.adjacency.to_dense()[i, j] == pytest.approx(
            math.exp(-d2[i, j]), abs=1e-12)


@given(st.data())
def test_blocked_build_matches_the_argsort_reference(data):
    # small integer features: exact arithmetic, many equal distances and
    # duplicate rows at distance zero
    n = data.draw(st.integers(3, 24))
    d = data.draw(st.integers(1, 3))
    feats = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=d, max_size=d),
        min_size=n, max_size=n)), dtype=np.float64)
    k = data.draw(st.integers(1, n - 1))
    sigma = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    # at least two row blocks; unless they hold one row each, the last is
    # shorter than the rest. The Gram blocks hold whole chunks or rows.
    rows_per_block = data.draw(st.integers(1, n - 1))
    assume(n % rows_per_block != 0 or rows_per_block == 1)
    gram_rows = data.draw(st.integers(1, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.graph, "KNN_BLOCK_ENTRIES", rows_per_block * n)
        mp.setattr(mgk.graph, "KNN_GRAM_ENTRIES", gram_rows * n)
        g = build_knn_rbf_graph(feats, k, sigma)
    adj, prop = argsort_knn_rbf_graph(feats, k, sigma)
    assert np.array_equal(g.adjacency.rows, adj.rows)
    assert np.array_equal(g.adjacency.cols, adj.cols)
    assert np.array_equal(g.adjacency.vals, adj.vals)
    assert np.array_equal(renormalized_propagation(g.adjacency).vals,
                          prop.vals)


def selecting_row_reference(features, k, sigma):
    """Reference builder for features with no tie at any row's k-th
    distance: each row's k nearest from the dense distance matrix, each edge
    weighted from the row of its lower endpoint when that endpoint selected
    it, and from the other endpoint's row otherwise."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1)[:, :k]
    selected = np.zeros((n, n), dtype=bool)
    selected[np.arange(n)[:, None], nearest] = True
    lo, hi = np.nonzero(np.triu(selected | selected.T))
    d = np.where(selected[lo, hi], d2[lo, hi], d2[hi, lo])
    adj = SparseSymMatrix(n, lo, hi, np.exp(-d / (sigma * sigma)))
    return adj, renormalized_propagation(adj)


@given(st.data())
def test_tie_free_build_matches_the_selecting_row_reference(data):
    # multiples of 2**-20 below 1 in at most 3 bands: every distance is
    # exact in any summation order, so the reference's dense distances are
    # the builder's blocked ones, bit for bit; no row has a tie at its k-th
    # distance, so no block sorts its candidates
    n = data.draw(st.integers(3, 40))
    d = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    feats = np.random.default_rng(seed).integers(0, 2**20, (n, d)) / 2**20
    k = data.draw(st.integers(1, n - 1))
    d2 = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    row_sorted = np.sort(d2, axis=1)
    assume(np.all(row_sorted[:, k - 1] < row_sorted[:, k]))
    sigma = data.draw(st.sampled_from([0.5, 1.0]))
    # Gram blocks and distance sub-blocks of row ranges or the whole chunk
    entries = [data.draw(st.integers(1, n)) * n for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.graph, "KNN_GRAM_ENTRIES", entries[0])
        mp.setattr(mgk.graph, "KNN_BLOCK_ENTRIES", entries[1])
        g = build_knn_rbf_graph(feats, k, sigma)
    adj, prop = selecting_row_reference(feats, k, sigma)
    for got, want in ((g.adjacency, adj),
                      (renormalized_propagation(g.adjacency), prop)):
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals.view(np.uint64),
                              want.vals.view(np.uint64))


def _graph_bits(g):
    adj = g.adjacency
    return [a.tobytes() for s in (adj, renormalized_propagation(adj))
            for a in (s.rows, s.cols, s.vals)] + [adj.row_sums().tobytes()]


@pytest.mark.parametrize("shape", [(657, 64), (3, 500, 12), (1681, 12)])
def test_graph_bits_do_not_depend_on_the_distance_sub_block(shape):
    # chunk sizes that are not multiples of 8: there the Gram product's bits
    # may depend on its row count, so only KNN_GRAM_ENTRIES may move them
    feats = np.random.default_rng(8).random(shape)
    want = _graph_bits(build_knn_rbf_graph(feats, 10, 1.0))
    c = shape[-2]
    for entries in (c, 37 * c, c * c, 2 * c * c):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mgk.graph, "KNN_BLOCK_ENTRIES", entries)
            assert _graph_bits(build_knn_rbf_graph(feats, 10, 1.0)) == want


def _diagonal_block(s, q, c):
    """Triplets of block q of a block-diagonal operator with c-vertex
    blocks, shifted to local indices."""
    at = (s.rows >= q * c) & (s.rows < (q + 1) * c)
    return s.rows[at] - q * c, s.cols[at] - q * c, s.vals[at]


@given(st.data())
def test_stacked_build_is_the_per_chunk_builds_on_the_diagonal(data):
    chunks = data.draw(st.integers(1, 4))
    c = data.draw(st.integers(2, 20))
    d = data.draw(st.integers(1, 5))
    shape = (chunks, c, d)
    if data.draw(st.booleans()):
        # float32 values, as spectra read from a cube are
        seed = data.draw(st.integers(0, 2**32 - 1))
        feats = np.random.default_rng(seed).random(shape) \
            .astype(np.float32).astype(np.float64)
    else:
        # small integers: ties, and duplicate rows at distance zero
        feats = np.array(data.draw(st.lists(
            st.integers(0, 2), min_size=chunks * c * d,
            max_size=chunks * c * d)), dtype=np.float64).reshape(shape)
    k = data.draw(st.integers(1, c - 1))
    sigma = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    # several whole chunks per block, or row ranges of one chunk, for the
    # Gram blocks and the distance sub-blocks
    entries = []
    for _ in range(2):
        if data.draw(st.booleans()):
            entries.append(data.draw(st.integers(1, chunks)) * c * c)
        else:
            entries.append(data.draw(st.integers(1, c - 1)) * c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.graph, "KNN_GRAM_ENTRIES", entries[0])
        mp.setattr(mgk.graph, "KNN_BLOCK_ENTRIES", entries[1])
        g = build_knn_rbf_graph(feats, k, sigma)
        alone = [build_knn_rbf_graph(f, k, sigma) for f in feats]
    assert g.n == chunks * c
    for operator in (lambda adj: adj, renormalized_propagation):
        s = operator(g.adjacency)
        # no entry leaves its chunk's block
        assert np.array_equal(s.rows // c, s.cols // c)
        for q, one in enumerate(alone):
            assert_same_triplets(operator(one.adjacency),
                                 _diagonal_block(s, q, c))


def test_build_names_the_bad_shape_or_chunk_size():
    for feats in (np.zeros(4), np.zeros((2, 2, 3, 1))):
        with pytest.raises(ShapeError, match="features must be"):
            build_knn_rbf_graph(feats, 1, 1.0)
    with pytest.raises(ContractError, match="c=1"):
        build_knn_rbf_graph(np.zeros((3, 1, 2)), 1, 1.0)
    for k in (4, 0):
        with pytest.raises(ContractError, match=f"k={k}, c=4"):
            build_knn_rbf_graph(np.zeros((2, 4, 2)), k, 1.0)
    with pytest.raises(ContractError, match="k=3, n=3"):
        build_knn_rbf_graph(np.zeros((3, 2)), 3, 1.0)


def test_build_memory_stays_far_below_one_dense_matrix():
    n = 12000
    dense_bytes = n * n * 8  # one n x n float64 array, 1099 MiB
    feats = np.random.default_rng(4).random((n, 4))
    tracemalloc.start()
    try:
        build_knn_rbf_graph(feats, 10, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 8


@pytest.mark.parametrize("shape", [(1, 1024, 64), (4800, 64)])
def test_build_memory_follows_the_block_sizes_not_the_chunk(shape):
    k = 10
    n = int(np.prod(shape[:-1]))
    feats = np.random.default_rng(4).random(shape)
    tracemalloc.start()
    try:
        build_knn_rbf_graph(feats, k, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one Gram block, a few float64 temporaries of one distance sub-block
    # (the distances, the partition's copy, the candidate mask), and O(n*k)
    # for the edge arrays and the operators. Distance temporaries as large
    # as the chunk (8 MiB each at 1024 px) do not fit.
    assert peak < (8 * mgk.graph.KNN_GRAM_ENTRIES
                   + 4 * 8 * mgk.graph.KNN_BLOCK_ENTRIES + 200 * n * k)


def test_build_rejects_bad_k():
    feats = np.zeros((3, 2))
    with pytest.raises(ContractError):
        build_knn_rbf_graph(feats, 3, 1.0)
    with pytest.raises(ContractError):
        build_knn_rbf_graph(feats, 0, 1.0)


def test_graph_invariants_on_random_input():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(12, 4))
    k = 3
    g = build_knn_rbf_graph(feats, k, 1.0)
    a = g.adjacency.to_dense()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    neighbor_counts = (a > 0).sum(axis=1)
    assert np.all(neighbor_counts >= 1)
    assert np.all(neighbor_counts <= 2 * k)
    assert np.all(g.adjacency.vals > 0) and np.all(g.adjacency.vals <= 1)
    assert np.allclose(g.adjacency.row_sums(), a.sum(axis=1), atol=1e-10)
    assert np.all(renormalized_propagation(g.adjacency).diagonal() > 0)


@given(st.integers(0, 2**32 - 1))
def test_build_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(10, 3))
    perm = rng.permutation(10)
    g = build_knn_rbf_graph(feats, 3, 1.0)
    gp = build_knn_rbf_graph(feats[perm], 3, 1.0)
    a = g.adjacency.to_dense()
    assert np.allclose(gp.adjacency.to_dense(), a[np.ix_(perm, perm)],
                       atol=1e-15)


def test_sigma_monotonicity():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(8, 3))
    lo = build_knn_rbf_graph(feats, 2, 0.5)
    hi = build_knn_rbf_graph(feats, 2, 2.0)
    # same topology: KNN ranking is sigma-independent
    assert np.array_equal(lo.adjacency.rows, hi.adjacency.rows)
    assert np.array_equal(lo.adjacency.cols, hi.adjacency.cols)
    assert np.all(hi.adjacency.vals > lo.adjacency.vals)


def test_laplacian_two_node_and_row_sums():
    g = two_node_graph(dist=1.5)
    w = g.adjacency.to_dense()[0, 1]
    lap = laplacian(g).to_dense()
    assert np.allclose(lap, [[w, -w], [-w, w]], atol=1e-15)
    rng = np.random.default_rng(9)
    g8 = build_knn_rbf_graph(rng.normal(size=(8, 3)), 3, 1.0)
    ones = np.ones((8, 1))
    assert np.max(np.abs(laplacian(g8).matmul(ones))) <= 1e-10


def test_sym_normalized_laplacian_values():
    g = build_knn_rbf_graph(np.zeros((2, 1)), 1, 1.0)  # unit weight edge
    lsym = sym_normalized_laplacian(g).to_dense()
    assert np.allclose(lsym, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_sym_normalized_laplacian_unit_diagonal_and_spectrum():
    rng = np.random.default_rng(21)
    g = build_knn_rbf_graph(rng.normal(size=(10, 3)), 3, 1.0)
    lsym = sym_normalized_laplacian(g)
    assert np.allclose(lsym.diagonal(), 1.0, atol=1e-15)
    vals = symmetric_eigendecomposition(lsym).values
    assert vals[0] >= -1e-8 and vals[-1] <= 2 + 1e-8


def test_renormalized_propagation_hand_cases():
    g = build_knn_rbf_graph(np.zeros((2, 1)), 1, 1.0)
    assert np.allclose(renormalized_propagation(g.adjacency).to_dense(),
                       [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_renormalized_propagation_mean_row_sum_le_one():
    # individual row sums can exceed 1 on irregular graphs (path-3 middle
    # row is 1/3 + 2/sqrt(6)); the mean row sum is <= 1 by AM-GM, with
    # equality only for degree-regular graphs
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = build_knn_rbf_graph(rng.normal(size=(9, 3)), 3, 1.0)
        prop = renormalized_propagation(g.adjacency)
        assert prop.row_sums().mean() <= 1.0 + 1e-12
        vals = symmetric_eigendecomposition(prop).values
        assert vals[0] > -1 - 1e-8 and vals[-1] <= 1 + 1e-8


def test_renormalized_propagation_regular_graph_row_sums_one():
    g = build_knn_rbf_graph(np.zeros((2, 1)), 1, 1.0)  # 1-regular, w=1
    assert np.allclose(renormalized_propagation(g.adjacency).row_sums(), 1.0,
                       atol=1e-12)


def test_chebyshev_scaled_two_node():
    g = build_knn_rbf_graph(np.zeros((2, 1)), 1, 1.0)
    lt = chebyshev_scaled(sym_normalized_laplacian(g), lambda_max=2.0)
    assert np.allclose(lt.to_dense(), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)


def test_chebyshev_scaled_identity_relation():
    rng = np.random.default_rng(17)
    g = build_knn_rbf_graph(rng.normal(size=(8, 3)), 3, 1.0)
    lsym = sym_normalized_laplacian(g)
    lt = chebyshev_scaled(lsym, lambda_max=2.0)
    # lambda_max=2 collapses the affine map to L_sym - I
    assert np.allclose(lt.to_dense() + np.eye(8), lsym.to_dense(),
                       atol=1e-12)


def test_chebyshev_scaled_true_lambda_max_bounds_spectrum():
    rng = np.random.default_rng(19)
    g = build_knn_rbf_graph(rng.normal(size=(10, 3)), 3, 1.0)
    lsym = sym_normalized_laplacian(g)
    lam_max = symmetric_eigendecomposition(lsym).values[-1]
    vals = symmetric_eigendecomposition(
        chebyshev_scaled(lsym, lambda_max=lam_max)).values
    assert vals[0] >= -1 - 1e-10 and vals[-1] <= 1 + 1e-10


def test_chebyshev_scaled_rejects_nonpositive_lambda():
    g = two_node_graph()
    with pytest.raises(ContractError):
        chebyshev_scaled(sym_normalized_laplacian(g), lambda_max=0.0)


# The builders as they were before the diagonal merge: diagonal and
# off-diagonal triplets concatenated, then put in canonical order by the
# constructor's lexsort. Kept as the bitwise reference.

def concat_laplacian(g):
    a, n = g.adjacency, g.n
    return lexsort_canonical(n, np.concatenate([np.arange(n), a.rows]),
                             np.concatenate([np.arange(n), a.cols]),
                             np.concatenate([g.adjacency.row_sums(), -a.vals]))


def concat_sym_normalized_laplacian(g):
    zero = np.nonzero(g.adjacency.row_sums() <= 0.0)[0]
    if zero.size:
        raise ContractError(
            f"vertex {int(zero[0])} has zero degree; cannot normalize"
        )
    a, n = g.adjacency, g.n
    inv_sqrt = 1.0 / np.sqrt(g.adjacency.row_sums())
    return lexsort_canonical(
        n, np.concatenate([np.arange(n), a.rows]),
        np.concatenate([np.arange(n), a.cols]),
        np.concatenate([np.ones(n),
                        -a.vals * inv_sqrt[a.rows] * inv_sqrt[a.cols]]))


def concatrenormalized_propagation(adj):
    n = adj.dim
    inv_sqrt = 1.0 / np.sqrt(adj.row_sums() + 1.0)
    return lexsort_canonical(
        n, np.concatenate([np.arange(n), adj.rows]),
        np.concatenate([np.arange(n), adj.cols]),
        np.concatenate([inv_sqrt * inv_sqrt,
                        adj.vals * inv_sqrt[adj.rows] * inv_sqrt[adj.cols]]))


def concat_chebyshev_scaled(l_sym, lambda_max):
    vals = l_sym.vals * (2.0 / lambda_max)
    on = l_sym.rows == l_sym.cols
    vals = np.where(on, vals - 1.0, vals)
    present = np.zeros(l_sym.dim, dtype=bool)
    present[l_sym.rows[on]] = True
    missing = np.nonzero(~present)[0]
    return lexsort_canonical(l_sym.dim,
                             np.concatenate([l_sym.rows, missing]),
                             np.concatenate([l_sym.cols, missing]),
                             np.concatenate([vals, -np.ones(missing.size)]))


def canonical_only(dim, rows, cols, vals, **kwargs):
    """The constructor, refusing triplets that would need its sort."""
    key = np.minimum(rows, cols) * dim + np.maximum(rows, cols)
    assert np.all(key[1:] > key[:-1]), "builder handed over unsorted triplets"
    return SparseSymMatrix(dim, rows, cols, vals, **kwargs)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.sampled_from(["knn", "random", "isolated", "empty"]),
       st.sampled_from([2.0, 1.7]))
def test_builders_match_the_concatenating_reference(seed, n, pattern,
                                                    lambda_max):
    rng = np.random.default_rng(seed)
    if pattern == "knn" and n >= 2:
        adj = build_knn_rbf_graph(rng.normal(size=(n, 3)), min(3, n - 1),
                                  1.0).adjacency
    else:
        upper = np.triu(rng.random((n, n)) < rng.random(), 1)
        if pattern == "isolated":
            gone = rng.random(n) < 0.3
            upper[gone, :] = upper[:, gone] = False
        elif pattern == "empty":
            upper[:] = False
        rr, cc = np.nonzero(upper)
        adj = SparseSymMatrix(n, rr, cc, rng.uniform(0.1, 1.0, rr.size))
    # a diagonal on some rows only: chebyshev_scaled fills in the others
    on = np.nonzero(rng.random(n) < 0.5)[0]
    partial = SparseSymMatrix(
        n, np.concatenate([adj.rows, on]), np.concatenate([adj.cols, on]),
        np.concatenate([-adj.vals, rng.uniform(0.5, 1.5, on.size)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.graph, "SparseSymMatrix", canonical_only)
        g = Graph(n=n, adjacency=adj)
        assert_same_triplets(renormalized_propagation(adj),
                             concatrenormalized_propagation(adj))
        assert_same_triplets(laplacian(g), concat_laplacian(g))
        assert_same_triplets(chebyshev_scaled(partial, lambda_max),
                             concat_chebyshev_scaled(partial, lambda_max))
        try:
            want = concat_sym_normalized_laplacian(g)
        except ContractError as err:
            with pytest.raises(ContractError) as got:
                sym_normalized_laplacian(g)
            assert str(got.value) == str(err)
            return
        lsym = sym_normalized_laplacian(g)
        assert_same_triplets(lsym, want)
        assert_same_triplets(chebyshev_scaled(lsym, lambda_max),
                             concat_chebyshev_scaled(lsym, lambda_max))


def test_with_diagonal_onto_a_stored_diagonal_is_a_duplicate():
    prop = renormalized_propagation(
        build_knn_rbf_graph(np.arange(4.0)[:, None], 1, 1.0).adjacency)
    with pytest.raises(ContractError, match=r"^duplicate entry at \(0, 0\)$"):
        mgk.graph._with_diagonal(prop, prop.vals, np.arange(4), np.ones(4))
