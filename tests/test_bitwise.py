"""Byte identity of training across changes that must not move any bit.

Each architecture trains for two epochs on a tiny synthetic scene; the
SHA-256 of its checkpoint, its sidecar and its formatted training log must
equal the digests below. A speed-up that reorders a floating-point sum, or
rounds through another temporary, fails here instead of slipping through.

Other numpy versions, BLAS builds, BLAS kernels and BLAS thread counts
round some products differently, so the digests only bind on the platform
they were recorded on; elsewhere the test skips and names both platforms.
To re-record after a change that accepts new bits, run
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_bitwise.py`` (the
suite's one BLAS thread) and paste its output over ``RECORDED``.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from mgk.data import synth_scene
from mgk.model import ARCHITECTURES, save_model
from mgk.pipeline import (dataset_from_parts, format_log_rows,
                          infer_model_config, train_model)

# 33 train pixels at batch 8: four full batches and a one-node tail that
# joins the batch before it; gcn trains all 33 as one batch.
TRAIN_KW = dict(epochs=2, batch=8, base_lr=0.01, l2=0.001, bn_momentum=0.9,
                seed=29)

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


def train_digests(arch, ds, tmp_dir):
    """(checkpoint, sidecar, log) SHA-256 hex digests of one seeded run."""
    result = train_model(ds, infer_model_config(ds, arch, graph_k=5),
                         **TRAIN_KW)
    path = os.path.join(tmp_dir, f"{arch}.mgkp")
    save_model(path, result.model)
    out = []
    for name in (path, path + ".json"):
        with open(name, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    log = format_log_rows(result.log_rows).encode()
    out.append(hashlib.sha256(log).hexdigest())
    return tuple(out)


@pytest.fixture(scope="module")
def scene():
    return _scene()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_training_bytes_match_recorded_digests(arch, scene, tmp_path):
    here = blas_platform()
    if here != RECORDED_PLATFORM:
        pytest.skip(f"digests were recorded on {RECORDED_PLATFORM}; this is "
                    f"{here}, which may round differently")
    got = train_digests(arch, scene, str(tmp_path))
    want = RECORDED[arch]
    for what, g, w in zip(("checkpoint", "sidecar", "train log"), got, want):
        assert g == w, f"{arch} {what} bytes changed"


if __name__ == "__main__":
    import tempfile

    ds = _scene()
    with tempfile.TemporaryDirectory() as tmp:
        print(f"RECORDED_PLATFORM = (\n    {blas_platform()!r})")
        print("RECORDED = {")
        for arch in ARCHITECTURES:
            digests = train_digests(arch, ds, tmp)
            print(f"    {arch!r}: (")
            for d in digests:
                print(f"        {d!r},")
            print("    ),")
        print("}")
