import io

import pytest

import mgk.bench
from mgk.bench import (BenchRow, DEFAULT_N_GRID, _autorange,
                       fit_loglog_slope, run_scaling, slopes_from_rows,
                       write_csv)
from mgk.errors import ContractError


def test_fit_loglog_slope_recovers_power_laws():
    ns = [100, 200, 400, 800]
    assert fit_loglog_slope(ns, [3e-6 * n ** 2 for n in ns]) \
        == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(ns, [5e-7 * n for n in ns]) \
        == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_slope_validates_input():
    with pytest.raises(ContractError):
        fit_loglog_slope([100], [1.0])
    with pytest.raises(ContractError):
        fit_loglog_slope([100, 200], [1.0, 0.0])


def test_run_scaling_validates_arguments():
    with pytest.raises(ContractError, match="mode"):
        run_scaling("dense")
    with pytest.raises(ContractError, match="increasing"):
        run_scaling("full-gcn", n_grid=(512, 256))
    with pytest.raises(ContractError, match="repeats"):
        run_scaling("full-gcn", n_grid=(64, 128), repeats=2)
    with pytest.raises(ContractError, match="budget"):
        run_scaling("minigcn", n_grid=(64, 128), m=100)


@pytest.fixture(scope="module")
def small_reports():
    grid = (64, 128, 256)
    full = run_scaling("full-gcn", n_grid=grid, d=16, p=4, repeats=3,
                       seed=0)
    mini = run_scaling("minigcn", n_grid=grid, d=16, p=4, m=16, repeats=3,
                       seed=0)
    return full, mini


def test_report_row_counts_and_fields(small_reports):
    full, mini = small_reports
    # full-gcn records a dense and a sparse sample set per size
    assert len(full.rows) == 3 * 3 * 2
    assert len(mini.rows) == 3 * 3
    assert {row.mode for row in full.rows} == {"full-gcn",
                                               "full-gcn-sparse"}
    for row in full.rows + mini.rows:
        assert row.seconds > 0
        assert row.repeat in (0, 1, 2)
    assert set(full.slopes) == {"full-gcn", "full-gcn-sparse"}
    assert set(mini.slopes) == {"minigcn"}


def test_slopes_from_rows_matches_report(small_reports):
    full, mini = small_reports
    recomputed = slopes_from_rows(full.rows + mini.rows)
    assert recomputed["full-gcn"] == pytest.approx(full.slopes["full-gcn"])
    assert recomputed["minigcn"] == pytest.approx(mini.slopes["minigcn"])


def test_csv_round_trip(small_reports):
    full, _ = small_reports
    buf = io.StringIO()
    write_csv(full, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "mode,n,d,p,m,repeat,seconds"
    assert len(lines) == 1 + len(full.rows)
    rows = []
    for line in lines[1:]:
        mode, n, d, p, m, repeat, seconds = line.split(",")
        rows.append(BenchRow(mode, int(n), int(d), int(p), int(m),
                             int(repeat), float(seconds)))
    parsed = slopes_from_rows(rows)
    for mode, slope in full.slopes.items():
        assert parsed[mode] == pytest.approx(slope)


def test_dense_pass_scales_faster_than_budgeted_pass(small_reports):
    # even on a small grid the dense whole-graph pass must grow clearly
    # faster than the constant-budget pass
    full, mini = small_reports
    assert full.slopes["full-gcn"] > mini.slopes["minigcn"] + 0.2


def test_timed_passes_induce_what_training_induces(monkeypatch):
    # each minigcn pass is one epoch: one induce_subgraph call holding the
    # batches of its partition; each full-gcn-sparse pass induces the
    # one-batch partition of the whole graph once
    induced, drawn = [], []
    real_induce = mgk.bench.induce_subgraph
    real_partition = mgk.bench.partition_epoch

    def counting_induce(g, batches):
        induced.append(batches)
        return real_induce(g, batches)

    def recording_partition(n, m, seed):
        drawn.append(real_partition(n, m, seed))
        return drawn[-1]

    per_pass = []

    def one_pass(fn, repeats):
        start = len(induced)
        fn()
        per_pass.append(induced[start:])
        return [1.0] * repeats

    monkeypatch.setattr(mgk.bench, "induce_subgraph", counting_induce)
    monkeypatch.setattr(mgk.bench, "partition_epoch", recording_partition)
    monkeypatch.setattr(mgk.bench, "_time_pass", one_pass)
    run_scaling("minigcn", n_grid=(64, 100, 256), d=4, p=2, m=16,
                repeats=3)
    assert [len(calls) for calls in per_pass] == [1, 1, 1]
    assert [len(calls[0]) for calls in per_pass] == [4, 7, 16]
    assert len(drawn) == 3
    for (batches,), partition in zip(per_pass, drawn):
        assert batches is partition
    per_pass.clear()
    run_scaling("full-gcn", n_grid=(64, 100), d=4, p=2, repeats=3)
    assert [[[ids.tolist() for ids in batches] for batches in calls]
            for calls in per_pass] == [[], [[list(range(64))]], [],
                                      [[list(range(100))]]]


def test_default_grid_is_strictly_increasing():
    assert list(DEFAULT_N_GRID) == sorted(set(DEFAULT_N_GRID))
    assert len(DEFAULT_N_GRID) >= 3


def test_autorange_survives_one_stalled_sample():
    # 0.1 ms per call, but the very first sample is stalled for 0.5 s; read
    # alone, it would stop the search at one call per sample
    calls = []

    def sample(inner):
        calls.append(inner)
        return 0.5 if len(calls) == 1 else 1e-4 * inner

    assert _autorange(sample, min_sample=0.02) == 200
