import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import assert_same_triplets, dense_to_sparse, random_graph
from mgk.errors import ContractError
from mgk.graph import Graph, build_knn_rbf_graph, renormalized_propagation
from mgk.linalg import SparseSymMatrix
from mgk import nn
import mgk.sampler
from mgk.pipeline import fold_singleton_tail
from mgk.sampler import (estimator_bias_diagnostic, induce_subgraph,
                         partition_epoch, write_bias_csv)


def test_partition_single_batch():
    batches = partition_epoch(10, 10, seed=0)
    assert len(batches) == 1
    assert sorted(batches[0].tolist()) == list(range(10))


def test_partition_sizes_and_disjoint_union():
    batches = partition_epoch(10, 3, seed=1)
    sizes = sorted(len(b) for b in batches)
    assert sizes == [1, 3, 3, 3]
    joined = np.concatenate(batches)
    assert sorted(joined.tolist()) == list(range(10))


@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_partition_invariants(n, seed):
    m = 1 + seed % n
    batches = partition_epoch(n, m, seed)
    assert len(batches) == math.ceil(n / m)
    assert all(len(b) <= m for b in batches)
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))


def test_partition_deterministic_and_seed_sensitive():
    a = partition_epoch(12, 4, seed=5)
    b = partition_epoch(12, 4, seed=5)
    c = partition_epoch(12, 4, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_rejects_bad_budget():
    with pytest.raises(ContractError):
        partition_epoch(5, 0, seed=0)
    with pytest.raises(ContractError):
        partition_epoch(5, 6, seed=0)


def test_partition_pair_frequency_matches_enumeration():
    # for n=6, m=2 every unordered pair lands in the same batch with
    # probability 1/5 (count over all permutations is pair-symmetric)
    n, m, trials = 6, 2, 20000
    together = np.zeros((n, n))
    for t in range(trials):
        batches = partition_epoch(n, m, seed=t)
        for batch in batches:
            ids = batch.tolist()
            for u, v in itertools.combinations(ids, 2):
                together[u, v] += 1
                together[v, u] += 1
    p_hat = together / trials
    p_true = 1.0 / 5.0
    se = math.sqrt(p_true * (1 - p_true) / trials)
    off = ~np.eye(n, dtype=bool)
    assert np.max(np.abs(p_hat[off] - p_true)) <= 3 * se + 1e-12


def test_induce_full_graph_is_identity_restriction():
    rng = np.random.default_rng(0)
    g, feats = random_graph(rng, 8)
    sub = induce_subgraph(g, (np.arange(8),))
    assert np.allclose(sub.prop_s.to_dense(),
                       renormalized_propagation(g.adjacency).to_dense(),
                       atol=1e-15)


def test_induce_singleton():
    rng = np.random.default_rng(1)
    g, _ = random_graph(rng, 5)
    sub = induce_subgraph(g, (np.array([3]),))
    assert np.array_equal(sub.prop_s.to_dense(), [[1.0]])


def test_induce_two_node_edge_weight():
    feats = np.array([[0.0], [0.1], [5.0], [5.1]])
    g = build_knn_rbf_graph(feats, 1, 1.0)
    w = g.adjacency.to_dense()[0, 1]
    sub = induce_subgraph(g, (np.array([0, 1]),))
    dense = sub.prop_s.to_dense()
    assert dense[0, 1] == pytest.approx(w / (1 + w), abs=1e-12)
    assert dense[0, 0] == pytest.approx(1 / (1 + w), abs=1e-12)


def test_induce_rejects_duplicates_and_range():
    rng = np.random.default_rng(2)
    g, _ = random_graph(rng, 5)
    with pytest.raises(ContractError):
        induce_subgraph(g, (np.array([1, 1]),))
    with pytest.raises(ContractError):
        induce_subgraph(g, (np.array([5]),))


@given(st.integers(0, 2**32 - 1))
def test_induce_order_insensitive(seed):
    rng = np.random.default_rng(seed)
    g, _ = random_graph(rng, 9)
    ids = rng.choice(9, size=5, replace=False)
    perm = rng.permutation(5)
    a = induce_subgraph(g, (ids,)).prop_s.to_dense()
    b = induce_subgraph(g, (ids[perm],)).prop_s.to_dense()
    assert np.allclose(b, a[np.ix_(perm, perm)], atol=1e-15)


def scan_restrict(matrix, node_ids):
    """Reference restriction: scans every stored entry with an n-long map
    from global to local ids."""
    local = np.full(matrix.dim, -1, dtype=np.int64)
    local[node_ids] = np.arange(node_ids.size)
    keep = (local[matrix.rows] >= 0) & (local[matrix.cols] >= 0)
    return SparseSymMatrix(
        node_ids.size,
        local[matrix.rows[keep]],
        local[matrix.cols[keep]],
        matrix.vals[keep],
    )


def graph_with_isolated_vertices(rng, n):
    """A random weighted graph on n vertices, about a third of them
    isolated."""
    weights = np.triu(rng.random((n, n)) + 0.5, 1)
    weights *= np.triu(rng.random((n, n)) < 0.4, 1)
    isolated = rng.random(n) < 0.35
    weights[isolated] = 0.0
    weights[:, isolated] = 0.0
    return Graph(n, dense_to_sparse(weights + weights.T))


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
@example(n=7, seed=3)
def test_epoch_blocks_are_each_batch_induced_alone_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    g = graph_with_isolated_vertices(rng, n)
    m = 1 + seed % n
    batches = fold_singleton_tail(partition_epoch(n, m, seed))
    sub = induce_subgraph(g, batches)
    assert np.array_equal(sub.node_ids, np.concatenate(batches))
    blocks = sub.prop_s.diagonal_blocks([ids.size for ids in batches])
    assert len(blocks) == len(batches)
    for ids, block in zip(batches, blocks):
        want = renormalized_propagation(scan_restrict(g.adjacency, ids))
        assert block.dim == want.dim == ids.size
        assert_same_triplets(block, (want.rows, want.cols, want.vals))


def test_induce_refuses_a_bare_id_array():
    g, _ = random_graph(np.random.default_rng(2), 5)
    with pytest.raises(ContractError, match="bare array of shape"):
        induce_subgraph(g, np.arange(5))
    with pytest.raises(ContractError, match=r"batch 0 .* shape \(\)"):
        induce_subgraph(g, [0, 1, 2])


@pytest.mark.parametrize("batches, match", [
    ((), "at least one batch"),
    ((np.array([0, 1]), np.array([], dtype=np.int64)),
     r"batch 1 .* shape \(0,\)"),
    ((np.array([0, 1]), np.array([2.0, 3.7])),
     "batch 1 must hold integer ids, got dtype float64"),
    ((np.array([True, False]),), "got dtype bool"),
    ((np.array([0, -1]),), "node id -1 out of range"),
    ((np.array([2]), np.array([0, 5])), "node id 5 out of range"),
    ((np.array([3, 1, 3]),), "node id 3 is given twice"),
    ((np.array([0, 4]), np.array([2, 4])), "node id 4 is given twice"),
])
def test_induce_refuses_bad_batches_before_any_work(monkeypatch, batches,
                                                    match):
    g, _ = random_graph(np.random.default_rng(2), 5)

    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(mgk.sampler, "SparseSymMatrix", no_build)
    monkeypatch.setattr(mgk.sampler, "renormalized_propagation", no_build)
    with pytest.raises(ContractError, match=match):
        induce_subgraph(g, batches)


def node_estimate(v, g, subgraph, h_prev, p, e=1.0):
    """Aggregation estimate for one vertex from a sampled batch, by brute
    force: the reference for the bias diagnostic.

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
    prop = renormalized_propagation(g.adjacency)
    col = scan_restrict(prop, ids).to_dense()[:, int(where[0])]
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


def test_node_estimate_full_graph_matches_layer_row():
    rng = np.random.default_rng(3)
    g, feats = random_graph(rng, 7, d=4)
    p = nn.make_graph_conv(rng, 4, 3)
    sub = induce_subgraph(g, (np.arange(7),))
    full, _ = nn.graph_conv_forward(
        feats, renormalized_propagation(g.adjacency), p)
    for v in range(7):
        est = node_estimate(v, g, sub, feats, p, e=1.0)
        assert np.max(np.abs(est - full[v])) <= 1e-12


def test_node_estimate_singleton():
    rng = np.random.default_rng(4)
    g, feats = random_graph(rng, 6, d=2)
    p = nn.make_graph_conv(rng, 2, 2)
    sub = induce_subgraph(g, (np.array([2]),))
    est = node_estimate(2, g, sub, feats, p, e=1.0)
    prop_vv = renormalized_propagation(g.adjacency).to_dense()[2, 2]
    want = prop_vv * feats[2] @ p.weights + p.bias
    assert np.max(np.abs(est - want)) <= 1e-14


def test_node_estimate_contract_errors():
    rng = np.random.default_rng(5)
    g, feats = random_graph(rng, 6, d=2)
    p = nn.make_graph_conv(rng, 2, 2)
    sub = induce_subgraph(g, (np.array([0, 1]),))
    with pytest.raises(ContractError):
        node_estimate(4, g, sub, feats, p, e=1.0)  # vertex not in batch
    e = np.zeros((6, 6))
    with pytest.raises(ContractError):
        node_estimate(0, g, sub, feats, p, e=e)  # zero normalization


def test_node_estimate_rejects_a_batch_beyond_the_graph():
    rng = np.random.default_rng(5)
    g, feats = random_graph(rng, 8, d=2)
    small, _ = random_graph(rng, 4, d=2)
    p = nn.make_graph_conv(rng, 2, 2)
    sub = induce_subgraph(g, (np.array([1, 6]),))
    with pytest.raises(ContractError, match="order 4"):
        node_estimate(1, small, sub, feats, p, e=1.0)


def exhaustive_two_batch_expectation(g, feats, p, e_mode):
    """Mean of the estimator over all equiprobable (2,1) partitions of 3.

    A uniform permutation of 3 vertices chunked at budget 2 yields the
    pair {perm[0], perm[1]} and singleton {perm[2]}; all 6 permutations
    are equally likely. With frequency normalization e_uv = C_uv/C_v
    computed over the same enumeration.
    """
    n = 3
    prop = renormalized_propagation(g.adjacency).to_dense()
    perms = list(itertools.permutations(range(n)))
    counts = np.zeros((n, n))
    for perm in perms:
        batches = [list(perm[:2]), [perm[2]]]
        for batch in batches:
            for u in batch:
                for v in batch:
                    counts[u, v] += 1
    if e_mode == "uniform":
        e = np.ones((n, n))
    else:
        e = counts / len(perms)
    acc = np.zeros((n, p.bias.size))
    for perm in perms:
        batches = [list(perm[:2]), [perm[2]]]
        for batch in batches:
            ids = np.array(sorted(batch))
            sub = induce_subgraph(g, (ids,))
            for v in ids:
                acc[v] += node_estimate(int(v), g, sub, feats, p, e=e)
    return acc / len(perms), e


@pytest.mark.parametrize("e_mode", ["uniform", "frequency"])
def test_exhaustive_three_vertex_expectation(e_mode):
    # triangle graph: 3 mutually-nearest points
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
    g = build_knn_rbf_graph(feats, 2, 1.0)
    rng = np.random.default_rng(6)
    p = nn.make_graph_conv(rng, 2, 2)
    full, _ = nn.graph_conv_forward(
        feats, renormalized_propagation(g.adjacency), p)
    mean, e = exhaustive_two_batch_expectation(g, feats, p, e_mode)
    bias = mean - full
    if e_mode == "frequency":
        # unbiased by construction when every pair co-occurs
        assert np.max(np.abs(bias)) <= 1e-12
    else:
        # e = 1 drops cross-batch mass; bias is real and nonzero here
        assert np.max(np.abs(bias)) > 1e-3


def test_diagnostic_full_budget_is_exact():
    rng = np.random.default_rng(7)
    g, feats = random_graph(rng, 6, d=3)
    report = estimator_bias_diagnostic(g, 6, trials=3, seed=0,
                                       features=feats)
    for stats in report.modes.values():
        assert np.max(np.abs(stats.bias)) <= 1e-12


def test_diagnostic_deterministic():
    rng = np.random.default_rng(8)
    g, feats = random_graph(rng, 8, d=3)
    a = estimator_bias_diagnostic(g, 3, trials=50, seed=9, features=feats)
    b = estimator_bias_diagnostic(g, 3, trials=50, seed=9, features=feats)
    for mode in a.modes:
        assert np.array_equal(a.modes[mode].mc_mean, b.modes[mode].mc_mean)
        assert np.array_equal(a.modes[mode].stderr, b.modes[mode].stderr)


def test_diagnostic_seed_sequence_keeps_its_spawn_key():
    rng = np.random.default_rng(8)
    g, feats = random_graph(rng, 8, d=3)
    weight = rng.normal(size=(3, 1))

    def mc_mean(seed):
        report = estimator_bias_diagnostic(g, 3, trials=50, seed=seed,
                                           features=feats, weight=weight)
        return report.modes["uniform"].mc_mean

    first, second = np.random.SeedSequence(5).spawn(2)
    a = mc_mean(first)
    assert not np.array_equal(a, mc_mean(second))
    assert not np.array_equal(a, mc_mean(5))
    assert np.array_equal(a, mc_mean(first))


def _diagnostic_trial_batches(n, m, trials, seed):
    """Each trial's batches, rebuilt from the diagnostic's one draw; every
    trial has the batch sizes that partition_epoch gives."""
    assign = np.random.default_rng(seed).permuted(
        np.broadcast_to(np.arange(n, dtype=np.int32) // m, (trials, n)),
        axis=1)
    sizes = [b.size for b in partition_epoch(n, m, 0)]
    parts = []
    for row in assign:
        batches = [np.nonzero(row == b)[0] for b in range(len(sizes))]
        assert [b.size for b in batches] == sizes
        parts.append(batches)
    return parts


def test_diagnostic_matches_brute_force_mc():
    # re-run the Monte Carlo by hand from the same drawn partitions
    rng = np.random.default_rng(10)
    g, feats = random_graph(rng, 5, d=2)
    weight = rng.normal(size=(2, 1))
    trials = 40
    report = estimator_bias_diagnostic(g, 2, trials=trials, seed=11,
                                       features=feats, weight=weight)
    z = feats @ weight
    prop = renormalized_propagation(g.adjacency).to_dense()
    target = prop @ z
    sums = np.zeros(5)
    for batches in _diagnostic_trial_batches(5, 2, trials, 11):
        for batch in batches:
            ids = np.sort(batch)
            sub = prop[np.ix_(ids, ids)]
            est = sub.T @ z[ids]
            sums[ids] += est[:, 0]
    mc = sums / trials
    assert np.max(np.abs(report.modes["uniform"].mc_mean - mc)) <= 1e-12
    assert np.max(np.abs(report.target - target[:, 0])) <= 1e-12


def test_diagnostic_holds_no_n_by_n_array():
    rng = np.random.default_rng(20)
    n = 2000
    g = build_knn_rbf_graph(rng.random((n, 4)), 10, 1.0)
    tracemalloc.start()
    try:
        estimator_bias_diagnostic(g, 32, trials=20, seed=21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("n, k", [(2, 1), (40, 5), (300, 10)])
def test_diagnostic_full_budget_target_is_the_operator_product(n, k):
    rng = np.random.default_rng(22)
    g, feats = random_graph(rng, n, d=3, k=k)
    weight = rng.normal(size=(3, 1))
    report = estimator_bias_diagnostic(g, n, trials=4, seed=23,
                                       features=feats, weight=weight)
    want = renormalized_propagation(g.adjacency).matmul(
        (feats @ weight).ravel())
    assert np.array_equal(report.target.view(np.uint64),
                          want.view(np.uint64))
    for stats in report.modes.values():
        assert np.all(stats.bias == 0.0)
        assert np.all(stats.variance == 0.0)
        assert np.array_equal(stats.mc_mean, want)


def test_diagnostic_constant_estimate_has_zero_stderr():
    # at budget 1 every vertex is alone, so every trial gives it the same
    # estimate: its variance is 0, not rounding noise
    rng = np.random.default_rng(28)
    g, feats = random_graph(rng, 300, d=3, k=5)
    report = estimator_bias_diagnostic(g, 1, trials=200, seed=29,
                                       features=feats)
    for stats in report.modes.values():
        assert np.all(stats.variance == 0.0)
        assert np.all(stats.stderr == 0.0)


@pytest.mark.parametrize("seed", [None, 1.5, "3"])
def test_diagnostic_refuses_a_seed_that_is_not_an_int(seed):
    g, _ = random_graph(np.random.default_rng(30), 6)
    with pytest.raises(ContractError, match="int or SeedSequence"):
        estimator_bias_diagnostic(g, 2, trials=4, seed=seed)


@pytest.mark.parametrize("m", [0, 7])
def test_diagnostic_refuses_a_budget_outside_the_graph(m):
    g, _ = random_graph(np.random.default_rng(31), 6)
    with pytest.raises(ContractError, match=f"got m={m}, n=6"):
        estimator_bias_diagnostic(g, m, trials=4, seed=0)


@pytest.mark.parametrize("block_terms", [1, 50, 1000])
def test_diagnostic_block_size_changes_no_bit(monkeypatch, block_terms):
    rng = np.random.default_rng(24)
    g, feats = random_graph(rng, 30, d=3, k=4)

    def run():
        report = estimator_bias_diagnostic(g, 7, trials=60, seed=25,
                                           features=feats)
        return [getattr(s, f).view(np.uint64) for s in report.modes.values()
                for f in ("mc_mean", "bias", "variance", "stderr")]

    whole = run()
    monkeypatch.setattr(mgk.sampler, "BIAS_BLOCK_TERMS", block_terms)
    for a, b in zip(whole, run()):
        assert np.array_equal(a, b)


def test_diagnostic_frequency_mode_matches_brute_force_mc():
    # few trials, so some edges never share a batch: their C_uv is 0
    rng = np.random.default_rng(26)
    g, feats = random_graph(rng, 9, d=2, k=3)
    weight = rng.normal(size=(2, 1))
    trials = 6
    report = estimator_bias_diagnostic(g, 2, trials=trials, seed=27,
                                       features=feats, weight=weight)
    z = (feats @ weight)[:, 0]
    prop = renormalized_propagation(g.adjacency).to_dense()
    parts = _diagnostic_trial_batches(9, 2, trials, 27)
    counts = np.zeros((9, 9))
    for batches in parts:
        for batch in batches:
            counts[np.ix_(batch, batch)] += 1
    assert np.any((prop != 0.0) & (counts == 0.0))
    sums = np.zeros(9)
    for batches in parts:
        for batch in batches:
            ids = np.sort(batch)
            sub = prop[np.ix_(ids, ids)] / (counts[np.ix_(ids, ids)] / trials)
            sums[ids] += sub.T @ z[ids]
    stats = report.modes["frequency"]
    assert np.all(np.isfinite(stats.stderr))
    assert np.max(np.abs(stats.mc_mean - sums / trials)) <= 1e-12


def test_diagnostic_stderr_scaling():
    rng = np.random.default_rng(12)
    g, feats = random_graph(rng, 6, d=2)
    ses = []
    grid = (200, 2000, 20000)
    for trials in grid:
        rep = estimator_bias_diagnostic(g, 2, trials=trials, seed=13,
                                        features=feats)
        ses.append(np.mean(rep.modes["uniform"].stderr))
    slope = np.polyfit(np.log(grid), np.log(ses), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_bias_csv_round_trip():
    rng = np.random.default_rng(14)
    g, feats = random_graph(rng, 5, d=2)
    report = estimator_bias_diagnostic(g, 2, trials=20, seed=15,
                                       features=feats)
    buf = io.StringIO()
    write_bias_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "vertex_id,target,mc_mean,bias,stderr,mode"
    assert len(lines) == 1 + 5 * len(report.modes)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(report.target[0])
    modes = {line.split(",")[-1] for line in lines[1:]}
    assert modes == set(report.modes)
