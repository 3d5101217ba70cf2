"""One workload repetition, measured in a fresh process.

Runs ``mgk train`` and then ``mgk predict-map`` (one or more times) through
``mgk.cli.run`` in this process, exactly as the command line would, and
writes a JSON result: per-command outcome and wall time, set-up and
training seconds, and ``ru_maxrss``. With tracing on it also writes every
span and the per-layer figures. The argument is the path of
a JSON spec written by ``run.py``:

    {"train": [argv...], "predict": [[argv...], ...], "trace": false,
     "expected": [span names], "result": "path", "spans": "path"}

Exit code 3 means the tracer could not be installed, could not take a
count, or an expected span never fired; the benchmark stops on it.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback

import mgk.cli
import tracing


def run_command(tracer, span, argv) -> dict:
    """Run one command; any exception or nonzero exit is a failure."""
    error = None
    idx = len(tracer.spans)
    try:
        with tracer.span(span):
            code = mgk.cli.run(argv)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    else:
        if code != 0:
            error = f"exit code {code}"
    _, start, end, _ = tracer.spans[idx]
    return {"ok": error is None, "error": error, "seconds": end - start}


def main(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer(tracing.TARGETS if spec["trace"]
                            else tracing.E2E_TARGETS)
    try:
        tracer.install()
    except tracing.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    try:
        result = {"train": run_command(tracer, tracing.TRAIN_SPAN,
                                       spec["train"])}
        result["predict"] = []
        for argv in spec["predict"] if result["train"]["ok"] else ():
            result["predict"].append(
                run_command(tracer, tracing.PREDICT_SPAN, argv))
            if not result["predict"][-1]["ok"]:
                break
    finally:
        tracer.restore()
    try:
        tracer.check()
    except tracing.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if result["train"]["ok"]:
        # set-up ends and training starts at the first partition_epoch
        # call; training ends when train_model returns
        first_epoch = tracer.first("sampler.partition")[1]
        result["setup_s"] = first_epoch - tracer.first(tracing.TRAIN_SPAN)[1]
        result["train_s"] = tracer.first("pipeline.train")[2] - first_epoch
    if spec["trace"] and result["train"]["ok"] \
            and all(r["ok"] for r in result["predict"]):
        try:
            result["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.counts, spec["expected"])
        except tracing.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "counts": {str(k): v for k, v in
                                  tracer.counts.items()}}, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
