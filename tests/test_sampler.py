import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dense_to_sparse, random_graph
from mgk.errors import ContractError
from mgk.graph import build_knn_rbf_graph, renormalized_propagation
from mgk import nn
from mgk.sampler import (estimator_bias_diagnostic, induce_subgraph,
                         node_estimate, partition_epoch, write_bias_csv)


def test_partition_single_batch():
    part = partition_epoch(10, 10, seed=0)
    assert len(part.batches) == 1
    assert sorted(part.batches[0].tolist()) == list(range(10))


def test_partition_sizes_and_disjoint_union():
    part = partition_epoch(10, 3, seed=1)
    sizes = sorted(len(b) for b in part.batches)
    assert sizes == [1, 3, 3, 3]
    joined = np.concatenate(part.batches)
    assert sorted(joined.tolist()) == list(range(10))


@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_partition_invariants(n, seed):
    m = 1 + seed % n
    part = partition_epoch(n, m, seed)
    assert len(part.batches) == math.ceil(n / m)
    assert all(len(b) <= m for b in part.batches)
    assert sorted(np.concatenate(part.batches).tolist()) == list(range(n))


def test_partition_deterministic_and_seed_sensitive():
    a = partition_epoch(12, 4, seed=5)
    b = partition_epoch(12, 4, seed=5)
    c = partition_epoch(12, 4, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a.batches, b.batches))
    assert any(not np.array_equal(x, y)
               for x, y in zip(a.batches, c.batches))


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
        part = partition_epoch(n, m, seed=t)
        for batch in part.batches:
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
    sub = induce_subgraph(g, np.arange(8), features=feats)
    assert np.allclose(sub.prop_s.to_dense(), g.prop.to_dense(), atol=1e-15)
    assert np.array_equal(sub.features, feats)


def test_induce_singleton():
    rng = np.random.default_rng(1)
    g, _ = random_graph(rng, 5)
    sub = induce_subgraph(g, np.array([3]))
    assert np.array_equal(sub.prop_s.to_dense(), [[1.0]])


def test_induce_two_node_edge_weight():
    feats = np.array([[0.0], [0.1], [5.0], [5.1]])
    g = build_knn_rbf_graph(feats, 1, 1.0)
    w = g.adjacency.to_dense()[0, 1]
    sub = induce_subgraph(g, np.array([0, 1]))
    dense = sub.prop_s.to_dense()
    assert dense[0, 1] == pytest.approx(w / (1 + w), abs=1e-12)
    assert dense[0, 0] == pytest.approx(1 / (1 + w), abs=1e-12)


def test_induce_rejects_duplicates_and_range():
    rng = np.random.default_rng(2)
    g, _ = random_graph(rng, 5)
    with pytest.raises(ContractError):
        induce_subgraph(g, np.array([1, 1]))
    with pytest.raises(ContractError):
        induce_subgraph(g, np.array([5]))


@given(st.integers(0, 2**32 - 1))
def test_induce_order_insensitive(seed):
    rng = np.random.default_rng(seed)
    g, _ = random_graph(rng, 9)
    ids = rng.choice(9, size=5, replace=False)
    perm = rng.permutation(5)
    a = induce_subgraph(g, ids).prop_s.to_dense()
    b = induce_subgraph(g, ids[perm]).prop_s.to_dense()
    assert np.allclose(b, a[np.ix_(perm, perm)], atol=1e-15)


def test_node_estimate_full_graph_matches_layer_row():
    rng = np.random.default_rng(3)
    g, feats = random_graph(rng, 7, d=4)
    p = nn.make_graph_conv(rng, 4, 3)
    sub = induce_subgraph(g, np.arange(7), features=feats)
    full, _ = nn.graph_conv_forward(feats, g.prop, p)
    for v in range(7):
        est = node_estimate(v, g, sub, feats, p, e=1.0)
        assert np.max(np.abs(est - full[v])) <= 1e-12


def test_node_estimate_singleton():
    rng = np.random.default_rng(4)
    g, feats = random_graph(rng, 6, d=2)
    p = nn.make_graph_conv(rng, 2, 2)
    sub = induce_subgraph(g, np.array([2]), features=feats[[2]])
    est = node_estimate(2, g, sub, feats, p, e=1.0)
    prop_vv = g.prop.to_dense()[2, 2]
    want = prop_vv * feats[2] @ p.weights + p.bias
    assert np.max(np.abs(est - want)) <= 1e-14


def test_node_estimate_contract_errors():
    rng = np.random.default_rng(5)
    g, feats = random_graph(rng, 6, d=2)
    p = nn.make_graph_conv(rng, 2, 2)
    sub = induce_subgraph(g, np.array([0, 1]), features=feats[:2])
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
    sub = induce_subgraph(g, np.array([1, 6]), features=feats[[1, 6]])
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
    prop = g.prop.to_dense()
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
            sub = induce_subgraph(g, ids, features=feats[ids])
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
    full, _ = nn.graph_conv_forward(feats, g.prop, p)
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


def test_diagnostic_matches_brute_force_mc():
    # re-run the Monte Carlo by hand from the same spawned seeds
    rng = np.random.default_rng(10)
    g, feats = random_graph(rng, 5, d=2)
    weight = rng.normal(size=(2, 1))
    trials = 40
    report = estimator_bias_diagnostic(g, 2, trials=trials, seed=11,
                                       features=feats, weight=weight)
    z = feats @ weight
    prop = g.prop.to_dense()
    target = prop @ z
    seeds = np.random.SeedSequence(11).spawn(trials)
    sums = np.zeros(5)
    for t in range(trials):
        part = partition_epoch(5, 2, seeds[t])
        for batch in part.batches:
            ids = np.sort(batch)
            sub = prop[np.ix_(ids, ids)]
            est = sub.T @ z[ids]
            sums[ids] += est[:, 0]
    mc = sums / trials
    assert np.max(np.abs(report.modes["uniform"].mc_mean - mc)) <= 1e-12
    assert np.max(np.abs(report.target - target[:, 0])) <= 1e-12


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
