"""Byte identity of training and inference across changes that must not
move any bit.

Each architecture trains for two epochs on a tiny synthetic scene; the
SHA-256 of its checkpoint, its sidecar and its formatted training log must
equal the digests below. The trained model then predicts every pixel of
the scene, and the SHA-256 of its eval-mode logits and of its predicted
classes must equal theirs, and so must the SHA-256 of the text and CSV
reports that ``eval`` writes for its test pixels. The bytes of the
``bias.csv`` that ``bias`` writes for the scene's training graph are
pinned too, and so are the operator triplets of one 1024-pixel inference
chunk, the chunk size of the ``gcn`` maps. A speed-up that reorders a floating-point sum, or rounds
through another temporary, fails here instead of slipping through.

Other numpy versions, BLAS builds, BLAS kernels and BLAS thread counts
round some products differently, so the digests only bind on the platform
they were recorded on; elsewhere the test skips and names both platforms.
To re-record after a change that accepts new bits, run
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_bitwise.py`` (the
suite's one BLAS thread) and paste its output over ``RECORDED``,
``RECORDED_INFERENCE``, ``RECORDED_EVAL``, ``RECORDED_BIAS`` and
``RECORDED_CHUNK``.
"""

import ctypes
import glob
import hashlib
import io
import os
from unittest import mock

import numpy as np
import pytest

from mgk import pipeline
from mgk.data import synth_scene
from mgk.graph import build_knn_rbf_graph
from mgk.metrics import report_text, write_report_csv
from mgk.model import ARCHITECTURES, forward, save_model
from mgk.pipeline import (chunk_prop, dataset_from_parts, evaluate_part,
                          format_log_rows, infer_model_config, predict_pixels,
                          train_model)
from mgk.sampler import estimator_bias_diagnostic, write_bias_csv

# 33 train pixels at batch 8: four full batches and a one-node tail that
# joins the batch before it; gcn trains all 33 as one batch.
TRAIN_KW = dict(epochs=2, batch=8, base_lr=0.01, l2=0.001, bn_momentum=0.9,
                seed=29)

# Inference over the scene's 144 pixels at batch 10, with 64-row groups:
# graph models run their 14 full chunks in three groups, the last one
# short, and every model runs a trailing 4-pixel chunk; patch models run
# one chunk per group. funet-c also runs one-pixel chunks.
PREDICT_CASES = [(arch, 10) for arch in ARCHITECTURES] + [("funet-c", 1)]
PREDICT_GROUP_ROWS = 64

# The eval reports cover the scene's test pixels at batch 10. The bias
# diagnostic runs on the 33-pixel training graph at k=5 and sigma=1, at
# budget 8 over 50 trials from seed 29.
EVAL_BATCH = 10
BIAS_GRAPH = (5, 1.0)
BIAS_RUN = (8, 50, 29)

# One inference chunk of 1024 pixels: every pixel of a 32x32 scene, as one
# chunk graph at the default k and sigma. At this chunk size each row of
# the KNN build's Gram buffer is 8 KiB long.
CHUNK_SCENE = dict(classes=4, size=32, bands=32, noise_sigma=0.02, seed=7,
                   train_per_class=5)
CHUNK_GRAPH = (10, 1.0)

RECORDED_PLATFORM = (
    'numpy 2.4.6, scipy-openblas 0.3.31.188.0, SkylakeX, BLAS threads 1')
RECORDED = {
    'gcn': (
        '52ef523fe2e112068c340dde69ae448705f7b8abb1f329ccef7e9962b3d563ea',
        'c567617491831f1dd1e82ca87b59dd64f044baf5da9ff2bb009c5a12b0914c8f',
        '1c6fdc2e6d8da544d61fdc108fd1fd652c19d65f6ff9652336fb29755a0ab334',
    ),
    'minigcn': (
        'e350f6b120460461d6f76fd834ca90aaf83cbfe678c1b57cb2dc5ec5922b19e4',
        'd304f22afa19ac9fd57f76c0345bdf230f9b5672274a7f3759417178b706887f',
        '29e4747e9d43ab71e522f96ae5e7ca6ec8281badbfc3656b89222c6a86640b85',
    ),
    'cnn2d': (
        '86b6c81c9b8e21a4e672e6022b328a6ee29420e2f37b1afe63ed4d8921f40c73',
        '260cc5841236d145710db5a04dd2082795c5c4e922fa5a884d2a8ee70872ef7c',
        '82c2a714f9e84a7d6899f75c3f19948a4ab8b211690234af64efae91e0ce4a31',
    ),
    'funet-a': (
        '66406fd1a178339f6ddd424d61c2838ebdb609ffec077bb4269bc9b1a935e4c8',
        'ff95afdcac9a86a1f2ed1aebaf6562dcedbe739ff92ee7cb8c631b3945c725a9',
        '08c43671f81c9cb0688ee2283f3f22b0a8a41798399266ac643da23c19c1fed1',
    ),
    'funet-m': (
        '905e554f2d4557117872efa71b3b808b68bc4c7a0d75b05695a9838a330bc452',
        '7324fa1fd8a674be87cbf065bb07bb717168438369c8d412574d2f4e0bf4c44b',
        'f0a2b347c993a8e74017405fefdaeb042b535b832d0c9f0e9aad9a897a3a853e',
    ),
    'funet-c': (
        'ee0a1d29ee56d3e582e5d454a14869dd6ddf7d711e35a7aafdf23fdc99b97520',
        'ee78f1f9b9d0fa7e924d24e0195d062fc6136736bd875c06f0c87b3c9fa2a675',
        'f94bfa39d8b065de0eb6301a6e10e332ee0f344df3ff0ed866e5ab51d1e04cbf',
    ),
}
RECORDED_INFERENCE = {
    'gcn@10': (
        'e67c0b9ff5d53eb53483d252fa9a793d03eaf03f7eaf8e96f6c5ef12892a12a1',
        '2ee97c1cafdffee1e694c8f40c137962d99e6a3793cbde36a77dcd5114f9031b',
    ),
    'minigcn@10': (
        'a50505778424256a57e4c1c5f8d347e056c79b026fbdf96417314c53d3f92754',
        '2ee97c1cafdffee1e694c8f40c137962d99e6a3793cbde36a77dcd5114f9031b',
    ),
    'cnn2d@10': (
        '404d6e086b7147690fd43a4745d16c6ca18920a9264bfa6e8a455a0abe3e6673',
        '469c4a821fb8faead36ca6abe1dd618d5f8fff25399414c21e8ce91dcd50b0c4',
    ),
    'funet-a@10': (
        '0baade3e25aff7101a86ceb3055b90480a12536177fd983c6567b88d52a043c4',
        '469c4a821fb8faead36ca6abe1dd618d5f8fff25399414c21e8ce91dcd50b0c4',
    ),
    'funet-m@10': (
        'b68272019a48f072e9ad0502c21a8ba1a66bd6092a8c30d1b5318647b09b4e0d',
        '2ee97c1cafdffee1e694c8f40c137962d99e6a3793cbde36a77dcd5114f9031b',
    ),
    'funet-c@10': (
        'dc133c4ccb536b9af1873b9645f1028e1847c0092d335c579640c0896e621c12',
        '2ee97c1cafdffee1e694c8f40c137962d99e6a3793cbde36a77dcd5114f9031b',
    ),
    'funet-c@1': (
        '21fce15b2ca942273d94facd0f480bee50f20d1c5a817da649d1037309193a0d',
        '2ee97c1cafdffee1e694c8f40c137962d99e6a3793cbde36a77dcd5114f9031b',
    ),
}

RECORDED_EVAL = {
    'gcn': (
        '9891cdd8e0de860ddc124cdbb954249fd27151557732dd801cd168d73fbb5b61',
        '09a2d446db0c739601affba48c4b61935cdb7292c0559ad7f1ac68c2c87a275c',
    ),
    'minigcn': (
        '9891cdd8e0de860ddc124cdbb954249fd27151557732dd801cd168d73fbb5b61',
        '09a2d446db0c739601affba48c4b61935cdb7292c0559ad7f1ac68c2c87a275c',
    ),
    'cnn2d': (
        '7b365a2764aebb30f49175518c5a987479b49ad12b3e231ce348be9dc540ad76',
        'a0886987374abd7108b9c8c673b33ab682bc9f0b1702b819d33a207d0416f00b',
    ),
    'funet-a': (
        '7b365a2764aebb30f49175518c5a987479b49ad12b3e231ce348be9dc540ad76',
        'a0886987374abd7108b9c8c673b33ab682bc9f0b1702b819d33a207d0416f00b',
    ),
    'funet-m': (
        '9891cdd8e0de860ddc124cdbb954249fd27151557732dd801cd168d73fbb5b61',
        '09a2d446db0c739601affba48c4b61935cdb7292c0559ad7f1ac68c2c87a275c',
    ),
    'funet-c': (
        '9891cdd8e0de860ddc124cdbb954249fd27151557732dd801cd168d73fbb5b61',
        '09a2d446db0c739601affba48c4b61935cdb7292c0559ad7f1ac68c2c87a275c',
    ),
}
RECORDED_BIAS = (
    '6c38862ba8f71b417a2684b1cdcd74b2f93cf3b910378215f686b94eff6a8146')
RECORDED_CHUNK = (
    '9d2383b32f86d5078e5342fc398fc4fecf63ec21cebb0770a240397880b38641')


def blas_platform() -> str:
    """numpy version, BLAS build and, when OpenBLAS reports them, the kernel
    set it picked for this CPU and its thread count, which changes how the
    larger products split their sums."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = "runtime unknown"
    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        so = ctypes.CDLL(lib)
        core = getattr(so, "scipy_openblas_get_corename64_", None)
        threads = getattr(so, "scipy_openblas_get_num_threads64_", None)
        if core is not None and threads is not None:
            core.restype = ctypes.c_char_p
            runtime = f"{core().decode()}, BLAS threads {threads()}"
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"{runtime}")


def _scene():
    cube, grid, split = synth_scene(classes=3, size=12, bands=8,
                                    noise_sigma=0.02, seed=5,
                                    train_per_class=11)
    return dataset_from_parts(cube, grid, split)


def train(arch, ds):
    return train_model(ds, infer_model_config(ds, arch, graph_k=5),
                       **TRAIN_KW)


def train_digests(result, tmp_dir):
    """(checkpoint, sidecar, log) SHA-256 hex digests of one seeded run."""
    arch = result.model.cfg.architecture
    path = os.path.join(tmp_dir, f"{arch}.mgkp")
    save_model(path, result.model)
    out = []
    for name in (path, path + ".json"):
        with open(name, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    log = format_log_rows(result.log_rows).encode()
    out.append(hashlib.sha256(log).hexdigest())
    return tuple(out)


def inference_digests(mdl, ds, batch):
    """(logits, classes) SHA-256 hex digests of ``predict_pixels`` over
    every pixel of the scene. The logits are taken through a spy on the
    pipeline's ``predict`` that runs the eval-mode forward itself; the
    classes come from a run through the real ``predict``."""
    ids = np.arange(ds.cube.height * ds.cube.width)
    logits = []

    def spy_predict(mdl, features=None, prop=None, patches=None):
        out, _ = forward(mdl, features, prop, patches, mode="eval")
        logits.append(out.copy())
        return np.argmax(out, axis=1)

    with mock.patch.object(pipeline, "PREDICT_GROUP_ROWS",
                           PREDICT_GROUP_ROWS):
        with mock.patch.object(pipeline, "predict", spy_predict):
            spied = predict_pixels(mdl, ds.cube, ids, batch=batch)
        classes = predict_pixels(mdl, ds.cube, ids, batch=batch)
    assert np.array_equal(spied, classes)
    logits = np.ascontiguousarray(np.concatenate(logits), dtype="<f8")
    assert logits.shape == (ids.size, mdl.cfg.classes)
    classes = np.ascontiguousarray(classes, dtype="<i8")
    return (hashlib.sha256(logits.tobytes()).hexdigest(),
            hashlib.sha256(classes.tobytes()).hexdigest())


def eval_report_digests(mdl, ds):
    """(report text, report CSV) SHA-256 hex digests of the test-pixel
    reports, made as ``eval`` makes its ``report_test`` files."""
    cm = evaluate_part(mdl, ds, "test", batch=EVAL_BATCH)
    csv_text = io.StringIO()
    write_report_csv(cm, csv_text)
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (report_text(cm), csv_text.getvalue()))


def bias_digest(ds):
    """SHA-256 hex digest of ``bias.csv``, made as ``bias`` makes it."""
    feats = ds.cube.pixels(ds.part_pixels("train")[0])
    g = build_knn_rbf_graph(feats, *BIAS_GRAPH)
    report = estimator_bias_diagnostic(g, *BIAS_RUN, features=feats)
    buf = io.StringIO()
    write_bias_csv(report, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def chunk_digest():
    """SHA-256 hex digest of the (rows, cols, vals) triplets of
    ``chunk_prop`` over the 1024 pixels of ``CHUNK_SCENE`` as one chunk."""
    ds = dataset_from_parts(*synth_scene(**CHUNK_SCENE))
    feats = ds.cube.pixels(np.arange(ds.cube.height * ds.cube.width))
    prop = chunk_prop(feats[None], *CHUNK_GRAPH)
    h = hashlib.sha256()
    for arr, dtype in ((prop.rows, "<i8"), (prop.cols, "<i8"),
                       (prop.vals, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def require_recorded_platform():
    here = blas_platform()
    if here != RECORDED_PLATFORM:
        pytest.skip(f"digests were recorded on {RECORDED_PLATFORM}; this is "
                    f"{here}, which may round differently")


@pytest.fixture(scope="module")
def scene():
    return _scene()


@pytest.fixture(scope="module")
def trained(scene):
    """Each architecture's seeded run, trained once for the module."""
    cache = {}

    def get(arch):
        if arch not in cache:
            cache[arch] = train(arch, scene)
        return cache[arch]
    return get


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_training_bytes_match_recorded_digests(arch, trained, tmp_path):
    require_recorded_platform()
    got = train_digests(trained(arch), str(tmp_path))
    want = RECORDED[arch]
    for what, g, w in zip(("checkpoint", "sidecar", "train log"), got, want):
        assert g == w, f"{arch} {what} bytes changed"


@pytest.mark.parametrize("arch, batch", PREDICT_CASES)
def test_inference_bits_match_recorded_digests(arch, batch, scene, trained):
    require_recorded_platform()
    got = inference_digests(trained(arch).model, scene, batch)
    want = RECORDED_INFERENCE[f"{arch}@{batch}"]
    for what, g, w in zip(("eval logits", "predicted classes"), got, want):
        assert g == w, f"{arch} at batch {batch}: {what} changed"


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_eval_reports_match_recorded_digests(arch, scene, trained):
    require_recorded_platform()
    got = eval_report_digests(trained(arch).model, scene)
    for what, g, w in zip(("report text", "report CSV"), got,
                          RECORDED_EVAL[arch]):
        assert g == w, f"{arch} eval {what} bytes changed"


def test_bias_csv_matches_recorded_digest(scene):
    require_recorded_platform()
    assert bias_digest(scene) == RECORDED_BIAS, "bias.csv bytes changed"


def test_1024_pixel_chunk_operator_matches_recorded_digest():
    require_recorded_platform()
    assert chunk_digest() == RECORDED_CHUNK, "chunk operator bits changed"


if __name__ == "__main__":
    import tempfile

    ds = _scene()
    results = {arch: train(arch, ds) for arch in ARCHITECTURES}

    def show(name, rows):
        print(f"{name} = {{")
        for key, digests in rows:
            print(f"    {key!r}: (")
            for d in digests:
                print(f"        {d!r},")
            print("    ),")
        print("}")

    with tempfile.TemporaryDirectory() as tmp:
        print(f"RECORDED_PLATFORM = (\n    {blas_platform()!r})")
        show("RECORDED", [(arch, train_digests(results[arch], tmp))
                          for arch in ARCHITECTURES])
    show("RECORDED_INFERENCE", [
        (f"{arch}@{batch}", inference_digests(results[arch].model, ds, batch))
        for arch, batch in PREDICT_CASES])
    show("RECORDED_EVAL", [(arch, eval_report_digests(results[arch].model, ds))
                           for arch in ARCHITECTURES])
    print(f"RECORDED_BIAS = (\n    {bias_digest(ds)!r})")
    print(f"RECORDED_CHUNK = (\n    {chunk_digest()!r})")
