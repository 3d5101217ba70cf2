"""Span tracer that wraps mgk's public functions from outside the package.

The package is not edited: a ``Tracer`` replaces each function at the name
the package's own code looks it up by (``mgk.pipeline.induce_subgraph``,
``mgk.nn.conv2d_forward``, ``mgk.linalg.SparseSymMatrix.matmul``, ...) and
puts the original back on ``restore``. Each call becomes a span
``[name, start, end, parent]`` kept in memory; a few spans also carry
counts taken from their arguments or return values. ``layer_metrics``
turns the spans into the per-layer figures.

A name that no longer exists makes ``install`` raise, and a span that a
workload must produce but never did makes ``layer_metrics`` raise, so a
refactor of the package cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

import numpy as np


class TraceError(RuntimeError):
    """A wrapped name is missing, a count could not be taken, or an
    expected span never fired."""


# --------------------------------------------------- counts taken at a span

def _graph_counts(args, result):
    return {"n": result.n, "edges": result.adjacency.nnz}


def _induce_counts(args, result):
    prop = result.prop_s
    return {"kept": int(np.count_nonzero(prop.rows != prop.cols))}


def _patch_counts(args, result):
    return {"patches": len(result)}


def _spmm_counts(args, result):
    return {"nnz": args[0].nnz}


def _conv_fwd_counts(args, result):
    b, h, w, c_out = result[0].shape
    kh, kw, c_in, _ = args[1].weights.shape
    return {"flop": 2 * b * h * w * kh * kw * c_in * c_out}


def _conv_bwd_counts(args, result):
    dx, grads = result
    b, h, w, c_in = dx.shape
    kh, kw, _, c_out = grads["weights"].shape
    # weight gradient plus input gradient, each as costly as the forward
    return {"flop": 4 * b * h * w * kh * kw * c_in * c_out}


def _adam_counts(args, result):
    from mgk.nn import TRAINABLE_FIELDS
    return {"params": sum(getattr(layer, f).size for _, layer in args[0]
                          for f in TRAINABLE_FIELDS[layer.kind])}


def _save_counts(args, result):
    path = str(args[0])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


# (owner, attribute, span name, counts). The owner is where the calling
# code looks the name up, not necessarily where it is defined.
TARGETS = (
    ("mgk.cli", "load_dataset", "data.load", None),
    ("mgk.cli", "load_labels", "data.load", None),
    ("mgk.cli", "save_model", "model.save", _save_counts),
    ("mgk.cli", "load_model", "model.load", None),
    ("mgk.cli", "train_model", "pipeline.train", None),
    ("mgk.cli", "predict_pixels", "pipeline.predict", None),
    ("mgk.pipeline", "build_knn_rbf_graph", "graph.knn", _graph_counts),
    ("mgk.pipeline", "extract_patches", "data.patch", _patch_counts),
    ("mgk.pipeline", "partition_epoch", "sampler.partition", None),
    ("mgk.pipeline", "induce_subgraph", "sampler.induce", _induce_counts),
    ("mgk.pipeline", "loss_and_grads", "model.loss_and_grads", None),
    ("mgk.pipeline", "predict", "model.predict", None),
    ("mgk.pipeline", "adam_step", "optim.adam", _adam_counts),
    ("mgk.pipeline", "accumulate", "metrics.accumulate", None),
    ("mgk.linalg:SparseSymMatrix", "matmul", "linalg.spmm", _spmm_counts),
    ("mgk.linalg:SparseSymMatrix", "__init__", "linalg.sym_build", None),
    ("mgk.nn", "graph_conv_forward", "nn.graph_conv.fwd", None),
    ("mgk.nn", "graph_conv_backward", "nn.graph_conv.bwd", None),
    ("mgk.nn", "conv2d_forward", "nn.conv2d.fwd", _conv_fwd_counts),
    ("mgk.nn", "conv2d_backward", "nn.conv2d.bwd", _conv_bwd_counts),
    ("mgk.nn", "maxpool2x2_forward", "nn.maxpool.fwd", None),
    ("mgk.nn", "maxpool2x2_backward", "nn.maxpool.bwd", None),
    ("mgk.nn", "batch_norm_forward", "nn.batch_norm.fwd", None),
    ("mgk.nn", "batch_norm_backward", "nn.batch_norm.bwd", None),
    ("mgk.nn", "fully_connected_forward", "nn.fc.fwd", None),
    ("mgk.nn", "fully_connected_backward", "nn.fc.bwd", None),
    ("mgk.nn", "relu_forward", "nn.relu.fwd", None),
    ("mgk.nn", "relu_backward", "nn.relu.bwd", None),
    ("mgk.nn", "softmax_cross_entropy", "nn.softmax_ce.fwd", None),
    ("mgk.nn", "softmax_cross_entropy_backward", "nn.softmax_ce.bwd", None),
)

# What an untraced run wraps: one span per epoch at partition_epoch, which
# separates set-up from training, and one around train_model, whose end
# closes the training window.
E2E_TARGETS = tuple(t for t in TARGETS
                    if t[2] in ("sampler.partition", "pipeline.train"))

# Root spans the child process opens around each command.
TRAIN_SPAN = "cli.train"
PREDICT_SPAN = "cli.predict_map"
# Taking a span's counts is a span of its own, a sibling of the counted
# one, so that its cost is not charged to the parent's self time.
COUNT_SPAN = "trace.count"


def _owner(owner_path):
    module_path, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module_path)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Wraps ``targets`` while installed; records spans into ``spans``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = {}  # span index -> {count name: value}
        self.errors = []  # counts that could not be taken
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    def install(self) -> None:
        resolved = []
        for owner_path, attr, name, counts in self.targets:
            try:
                owner = _owner(owner_path)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                raise TraceError(
                    f"cannot wrap {owner_path}.{attr}: {exc!r}") from exc
            resolved.append((owner, attr, name, counts, original))
        for owner, attr, name, counts, original in resolved:
            setattr(owner, attr, self._wrap(name, original, counts))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self._count(idx, counts, args, result)
            return result
        return wrapper

    def _count(self, idx, counts, args, result) -> None:
        # A failure here is the tracer's, not the package's: it is kept
        # for the caller to raise, never thrown into the package's code.
        with self.span(COUNT_SPAN):
            try:
                self.counts[idx] = counts(args, result)
            except Exception as exc:  # noqa: BLE001
                self.errors.append(f"counting {self.spans[idx][0]}: {exc!r}")

    def check(self) -> None:
        """Raise TraceError if a count could not be taken."""
        if self.errors:
            raise TraceError("; ".join(self.errors))

    def first(self, name):
        """The earliest span with this name, or None."""
        return next((s for s in self.spans if s[0] == name), None)


# ----------------------------------------------------------- layer metrics

# Spans every workload must produce, and those only a patch architecture
# produces. graph.chunk_knn is a graph.knn span under pipeline.predict.
EXPECTED_ALWAYS = (
    TRAIN_SPAN, PREDICT_SPAN, "data.load", "model.save", "model.load",
    "pipeline.train", "pipeline.predict", "sampler.partition",
    "model.loss_and_grads", "model.predict", "optim.adam",
    "metrics.accumulate", "linalg.sym_build", "nn.batch_norm.fwd",
    "nn.batch_norm.bwd", "nn.fc.fwd", "nn.fc.bwd", "nn.relu.fwd",
    "nn.relu.bwd", "nn.softmax_ce.fwd", "nn.softmax_ce.bwd", "graph.knn",
    "graph.chunk_knn", "sampler.induce", "linalg.spmm", "nn.graph_conv.fwd",
    "nn.graph_conv.bwd",
)
EXPECTED_PATCHES = ("data.patch", "nn.conv2d.fwd", "nn.conv2d.bwd",
                    "nn.maxpool.fwd", "nn.maxpool.bwd")

NN_KINDS = ("graph_conv", "conv2d", "maxpool", "batch_norm", "fc", "relu",
            "softmax_ce")

# Percentiles tried for the tail figure, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples):
    """(level, value) of the highest percentile with >= 10 samples beyond
    it, or (0, 0) when there are fewer than 20 samples."""
    for q in TAIL_LEVELS:
        if round(len(samples) * (100.0 - q), 6) >= 1000.0:
            return q, float(np.percentile(samples, q))
    return 0.0, 0.0


class _Group:
    __slots__ = ("self_s", "total_s", "us", "counts")

    def __init__(self):
        self.self_s = 0.0
        self.total_s = 0.0
        self.us = []  # inclusive duration of each call
        self.counts = {}


def _group(spans, counts):
    child_s = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    in_predict = [False] * len(spans)
    groups = {}
    # a parent is always recorded before its children
    for i, (name, t0, t1, parent) in enumerate(spans):
        in_predict[i] = name == "pipeline.predict" or (
            parent >= 0 and in_predict[parent])
        key = "graph.chunk_knn" if name == "graph.knn" and in_predict[i] \
            else name
        g = groups.setdefault(key, _Group())
        g.self_s += t1 - t0 - child_s[i]
        g.total_s += t1 - t0
        g.us.append((t1 - t0) * 1e6)
        for field, value in counts.get(i, {}).items():
            g.counts[field] = g.counts.get(field, 0) + value
    return groups


def layer_metrics(spans, counts, expected) -> dict:
    """Per-layer figures of one traced repetition, by metric name.

    Times ending in ``_s`` are self time, the span minus its child spans,
    so that they add up to the command totals; the command, model
    ``loss_and_grads``/``predict``, save and load times are inclusive. A
    layer a workload does not use reads 0. Raises TraceError if a span
    named in ``expected`` never fired.
    """
    groups = _group(spans, counts)
    missing = [name for name in expected if name not in groups]
    if missing:
        raise TraceError(f"expected spans never fired: {missing}")
    empty = _Group()

    def g(key):
        return groups.get(key, empty)

    def calls(key):
        return len(g(key).us)

    def count(key, field):
        return g(key).counts.get(field, 0)

    def p50(key):
        return float(np.median(g(key).us)) if g(key).us else 0.0

    epoch_edges = calls("sampler.partition") * count("graph.knn", "edges")
    m = {
        "cli.train_s": g(TRAIN_SPAN).total_s,
        "cli.predict_map_s": g(PREDICT_SPAN).total_s,
        "cli.self_s": g(TRAIN_SPAN).self_s + g(PREDICT_SPAN).self_s,
        "data.load_s": g("data.load").self_s,
        "data.patch_s": g("data.patch").self_s,
        "data.patches": count("data.patch", "patches"),
        "graph.knn_s": g("graph.knn").self_s,
        "graph.knn_n": count("graph.knn", "n"),
        "graph.knn_nnz": count("graph.knn", "edges"),
        # one n x n float64 temporary, as computed, not as measured
        "graph.knn_dense_mb": count("graph.knn", "n") ** 2 * 8 / 2 ** 20,
        "graph.chunk_knn_s": g("graph.chunk_knn").self_s,
        "graph.chunk_knn_calls": calls("graph.chunk_knn"),
        "graph.chunk_knn_us_p50": p50("graph.chunk_knn"),
        "sampler.partition_s": g("sampler.partition").self_s,
        "sampler.induce_s": g("sampler.induce").self_s,
        "sampler.induce_calls": calls("sampler.induce"),
        "sampler.induce_us_p50": p50("sampler.induce"),
        "sampler.edges_kept_ratio": (
            count("sampler.induce", "kept") / epoch_edges
            if epoch_edges else 0.0),
        "linalg.spmm_s": g("linalg.spmm").self_s,
        "linalg.spmm_calls": calls("linalg.spmm"),
        "linalg.spmm_nnz_mean": (count("linalg.spmm", "nnz")
                                 / max(calls("linalg.spmm"), 1)),
        "linalg.sym_build_s": g("linalg.sym_build").self_s,
        "linalg.sym_build_calls": calls("linalg.sym_build"),
        "model.loss_and_grads_s": g("model.loss_and_grads").total_s,
        "model.predict_s": g("model.predict").total_s,
        "model.self_s": (g("model.loss_and_grads").self_s
                         + g("model.predict").self_s),
        "model.save_s": g("model.save").total_s,
        "model.load_s": g("model.load").total_s,
        "model.checkpoint_bytes": count("model.save", "bytes"),
        "optim.adam_s": g("optim.adam").self_s,
        "optim.adam_calls": calls("optim.adam"),
        "optim.adam_us_p50": p50("optim.adam"),
        "optim.param_count": (count("optim.adam", "params")
                              // max(calls("optim.adam"), 1)),
        "pipeline.train_self_s": g("pipeline.train").self_s,
        "pipeline.predict_self_s": g("pipeline.predict").self_s,
        "pipeline.steps": calls("model.loss_and_grads"),
        "pipeline.chunks": calls("model.predict"),
        "metrics.accumulate_s": g("metrics.accumulate").self_s,
        "trace.spans": len(spans),
        "trace.count_s": g(COUNT_SPAN).total_s,
    }
    for prefix, key in (("graph.chunk_knn", "graph.chunk_knn"),
                        ("sampler.induce", "sampler.induce")):
        level, value = tail(g(key).us)
        m[f"{prefix}_us_tail"] = value
        m[f"{prefix}_tail_pct"] = level
    for kind in NN_KINDS:
        fwd, bwd = g(f"nn.{kind}.fwd"), g(f"nn.{kind}.bwd")
        m[f"nn.{kind}.fwd_s"] = fwd.self_s
        m[f"nn.{kind}.bwd_s"] = bwd.self_s
        m[f"nn.{kind}.calls"] = len(fwd.us) + len(bwd.us)
    conv_s = m["nn.conv2d.fwd_s"] + m["nn.conv2d.bwd_s"]
    gflop = (count("nn.conv2d.fwd", "flop")
             + count("nn.conv2d.bwd", "flop")) / 1e9
    m["nn.conv2d.gflop"] = gflop
    m["nn.conv2d.gflop_per_s"] = gflop / conv_s if conv_s > 0 else 0.0
    return m


def expected_spans(uses_patches: bool) -> tuple:
    return EXPECTED_ALWAYS + (EXPECTED_PATCHES if uses_patches else ())
