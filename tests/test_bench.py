import io

import pytest

import mgk.bench
import mgk.pipeline
from mgk.bench import (BenchRow, DEFAULT_N_GRID, _autorange,
                       fit_loglog_slope, run_scaling, slopes_from_rows,
                       write_csv)
from mgk.errors import ContractError
from mgk.pipeline import fold_singleton_tail
from test_imports import EPOCH_STEPS


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


def test_run_scaling_validates_arguments(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("a bench graph was built")

    monkeypatch.setattr(mgk.bench, "build_knn_rbf_graph", no_graph)
    with pytest.raises(ContractError, match="mode"):
        run_scaling("dense")
    with pytest.raises(ContractError, match="increasing"):
        run_scaling("full-gcn", n_grid=(512, 256))
    with pytest.raises(ContractError, match="repeats"):
        run_scaling("full-gcn", n_grid=(64, 128), repeats=2)
    with pytest.raises(ContractError, match="budget"):
        run_scaling("minigcn", n_grid=(64, 128), m=100)
    # train-mode batch norm cannot take a one-node batch
    with pytest.raises(ContractError, match="m=1"):
        run_scaling("minigcn", n_grid=(64, 128), m=1)


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


@pytest.fixture
def timed_passes(monkeypatch):
    """Runs each timed pass once, and lists per pass the calls it made to
    the pipeline's epoch steps as (name, args, result)."""
    calls, per_pass = [], []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append((name, args, real(*args, **kwargs)))
            return calls[-1][2]
        return call

    def one_pass(fn, repeats):
        start = len(calls)
        fn()
        per_pass.append(calls[start:])
        return [1.0] * repeats

    for name in EPOCH_STEPS:
        monkeypatch.setattr(mgk.pipeline, name,
                            spy(name, getattr(mgk.pipeline, name)))
    monkeypatch.setattr(mgk.bench, "_time_pass", one_pass)
    return per_pass


def args_of(calls, name):
    return [args for step, args, _ in calls if step == name]


def results_of(calls, name):
    return [out for step, _, out in calls if step == name]


def test_timed_passes_induce_what_training_induces(timed_passes):
    # each minigcn pass is one epoch: one partition_epoch draw at budget m
    # and one induce_subgraph call holding its batches; each
    # full-gcn-sparse pass induces the one-batch partition of the whole
    # graph once, and the dense pass induces nothing
    run_scaling("minigcn", n_grid=(64, 100, 256), d=4, p=2, m=16,
                repeats=3)
    assert [len(args_of(calls, "induce_subgraph"))
            for calls in timed_passes] == [1, 1, 1]
    for calls, n in zip(timed_passes, (64, 100, 256)):
        (drawn,) = results_of(calls, "partition_epoch")
        assert args_of(calls, "partition_epoch")[0][:2] == (n, 16)
        assert args_of(calls, "induce_subgraph")[0][1] is drawn
    assert [len(results_of(calls, "partition_epoch")[0])
            for calls in timed_passes] == [4, 7, 16]
    timed_passes.clear()
    run_scaling("full-gcn", n_grid=(64, 100), d=4, p=2, repeats=3)
    assert [[[sorted(ids.tolist()) for ids in args[1]]
             for args in args_of(calls, "induce_subgraph")]
            for calls in timed_passes] == [[], [[list(range(64))]], [],
                                          [[list(range(100))]]]


def test_each_timed_epoch_steps_once_per_folded_batch(timed_passes):
    # n=97 at m=16 leaves a one-node tail, which joins the batch before it;
    # every batch of the folded partition takes one loss_and_grads on its
    # rows, then one adam_step, as in training
    run_scaling("minigcn", n_grid=(64, 97, 256), d=4, p=2, m=16, repeats=3)
    run_scaling("full-gcn", n_grid=(64, 100), d=4, p=2, repeats=3)
    folded = [fold_singleton_tail(drawn) for calls in timed_passes
              for drawn in results_of(calls, "partition_epoch")]
    assert [[ids.size for ids in batches] for batches in folded] == [
        [16] * 4, [16] * 5 + [17], [16] * 16, [64], [100]]
    stepped = [calls for calls in timed_passes
               if results_of(calls, "partition_epoch")]
    for calls, batches in zip(stepped, folded):
        steps = [name for name, _, _ in calls
                 if name in ("loss_and_grads", "adam_step")]
        assert steps == ["loss_and_grads", "adam_step"] * len(batches)
        labels = [args[1] for args in args_of(calls, "loss_and_grads")]
        assert [rows.shape[0] for rows in labels] \
            == [ids.size for ids in batches]
    # the dense reference passes, one per size, step nothing
    assert timed_passes[3] == timed_passes[5] == []


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
