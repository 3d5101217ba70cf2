"""Tests of the benchmark itself, on tiny scenes.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Scene, write_scene  # noqa: E402

# Low noise and enough epochs that even 128 train pixels clear the accuracy
# floor of the map check.
TINY = {name: dataclasses.replace(
    w, scene=Scene(size=32, train_per_class=8, bands=16, noise_sigma=0.05),
    epochs=20)
    for name, w in WORKLOADS.items()}


def bench_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_tiny(capsys, tmp_path, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY,
                    out_root=tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize(
    "name", [w["name"] for w in bench_json()["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric_with_unit(
        capsys, tmp_path, name):
    lines, result = run_tiny(capsys, tmp_path, name, trace=0)
    assert result["correct"] is True
    commands = run.MIN_REPS * (1 + TINY[name].maps)
    assert (result["attempted"], result["failed"]) == (commands, 0)
    want = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in [*want.items(), ("failed_ops_ratio", "ratio")]:
        assert any(line.split()[:1] == [metric] and f" {unit} " in line
                   for line in lines[:-1]), metric


def test_tiny_traced_run_reports_every_layer_metric(capsys, tmp_path):
    # funet-patches is the workload that has both a graph and patches
    lines, result = run_tiny(capsys, tmp_path, "funet-patches", trace=1)
    # the traced repetition's checkpoint, log and map matched the
    # untraced one's byte for byte, or the run would not be correct
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pipeline.steps"] == TINY["funet-patches"].epochs * 4
    assert metrics["pipeline.chunks"] == 32
    assert metrics["data.patches"] == 128 + 32 * 32
    assert metrics["sampler.edges_kept_ratio"] > 0


def test_traced_and_untraced_repetitions_write_identical_files(tmp_path):
    w = TINY["minigcn-n4800"]
    _, labels, test_ids = write_scene(w.scene, 5, tmp_path / "scene")
    checker = run.Checker(w, labels, test_ids)
    outcome = run.Outcome()
    deadline = time.monotonic() + 120
    for i, trace in enumerate((False, True)):
        e2e, layers = run.run_rep(w, 5, tmp_path / "scene",
                                  tmp_path / f"rep{i}", trace, checker,
                                  outcome, deadline)
        assert (layers is not None) == trace
    assert (outcome.attempted, outcome.failed) == (w.maps + 3, 0), \
        outcome.errors
    for name in ("model.mgkp", "model.mgkp.json", "train_log.csv",
                 "map0/map.ppm"):
        assert (tmp_path / "rep0" / name).read_bytes() == \
            (tmp_path / "rep1" / name).read_bytes()


def test_tracer_restores_every_original():
    originals = [(tracing._owner(o), a, tracing._owner(o).__dict__[a])
                 for o, a, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_missing_name_fails_loudly_and_wraps_nothing():
    import mgk.pipeline
    original = mgk.pipeline.induce_subgraph
    tracer = tracing.Tracer(tracing.TARGETS + (
        ("mgk.pipeline", "no_such_function", "x", None),))
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracer.install()
    assert mgk.pipeline.induce_subgraph is original


def test_self_time_subtracts_children_and_expected_spans_are_enforced():
    spans = [["pipeline.predict", 0.0, 10.0, -1],
             ["graph.knn", 1.0, 4.0, 0],
             ["linalg.sym_build", 2.0, 3.0, 1],
             ["graph.knn", 20.0, 22.0, -1]]
    counts = {3: {"n": 4, "edges": 5}}
    m = tracing.layer_metrics(spans, counts, ("graph.knn", "graph.chunk_knn"))
    assert m["pipeline.predict_self_s"] == 7.0
    assert m["graph.chunk_knn_s"] == 2.0   # 3 s minus the 1 s child
    assert m["linalg.sym_build_s"] == 1.0
    assert m["graph.knn_s"] == 2.0         # not under predict
    assert m["graph.knn_nnz"] == 5
    with pytest.raises(tracing.TraceError, match="sampler.induce"):
        tracing.layer_metrics(spans, counts, ("sampler.induce",))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail(list(range(19)))[0] == 0.0
    assert tracing.tail(list(range(20)))[0] == 50.0
    assert tracing.tail(list(range(100)))[0] == 90.0
    assert tracing.tail(list(range(2048)))[0] == 99.0


def test_count_failure_is_the_tracers_not_the_programs():
    def broken(args, result):
        raise ValueError("boom")

    import mgk.pipeline
    tracer = tracing.Tracer((("mgk.pipeline", "accumulate", "x", broken),))
    tracer.install()
    try:
        mgk.pipeline.accumulate([1], [1], 2)  # no exception reaches here
    finally:
        tracer.restore()
    assert [s[0] for s in tracer.spans] == ["x", tracing.COUNT_SPAN]
    with pytest.raises(tracing.TraceError, match="counting x.*boom"):
        tracer.check()


def test_metric_the_code_does_not_compute_fails_loudly(
        capsys, tmp_path, monkeypatch):
    doc = bench_json()
    doc["end_to_end"].append({"name": "no_such_metric", "unit": "s",
                              "better": "lower", "bound": 0.1})
    monkeypatch.setattr(run, "BENCHMARK_JSON", tmp_path / "BENCHMARK.json")
    run.BENCHMARK_JSON.write_text(json.dumps(doc))
    code = run.main(["--workload", "funet-patches", "--seed", "3",
                     "--seconds", "0", "--trace", "0"], workloads=TINY,
                    out_root=tmp_path)
    assert code != 0
    assert "no_such_metric" in capsys.readouterr().err


def test_without_sources_exits_nonzero_and_prints_no_result(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "funet-patches", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], out_root=tmp_path)
    assert code != 0
    assert capsys.readouterr().out == ""


BROKEN = dataclasses.replace(TINY["minigcn-n4800"],
                             architecture="no-such-architecture")


def test_failed_command_is_counted_not_retried_and_a_result_printed(
        capsys, tmp_path):
    code = run.main(["--workload", "minigcn-n4800", "--seed", "3",
                     "--seconds", "0", "--trace", "0"],
                    workloads={"minigcn-n4800": BROKEN}, out_root=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 1, 1)
    assert any("FAILED rep0 train" in line for line in lines)


def test_failed_traced_repetition_is_a_failure_not_a_harness_error(
        tmp_path):
    _, labels, test_ids = write_scene(BROKEN.scene, 5, tmp_path / "scene")
    outcome = run.Outcome()
    assert run.run_rep(BROKEN, 5, tmp_path / "scene", tmp_path / "rep0",
                       True, run.Checker(BROKEN, labels, test_ids), outcome,
                       time.monotonic() + 120) == (None, None)
    assert (outcome.attempted, outcome.failed) == (1, 1)
