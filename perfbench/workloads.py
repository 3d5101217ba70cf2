"""The benchmark's workloads and the scene files each one runs on.

Scenes come from ``mgk.data.synth_scene``: 16 classes, 64 bands and
noise 0.4, at which the map accuracy stays below 100 % instead of
saturating. The scene is a pure function of the workload seed; the
training seed is derived from it. Everything else is the package default
(k = 10, sigma = 1, patch 7) except ``base_lr`` = 0.01.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

# Keeps the training stream apart from the scene stream of the same seed.
TRAIN_SEED_OFFSET = 100_003
BASE_LR = 0.01


@dataclass(frozen=True)
class Scene:
    size: int
    train_per_class: int
    classes: int = 16
    bands: int = 64
    noise_sigma: float = 0.4

    @property
    def pixels(self) -> int:
        return self.size * self.size

    @property
    def n_train(self) -> int:
        return self.classes * self.train_per_class


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    architecture: str
    epochs: int
    batch: int
    # Whether the trace must see the patch layers fire. Stated here, not
    # read from the package, so that a refactor that drops them is caught.
    uses_patches: bool
    # predict-map commands per untraced repetition, each one sample of
    # map_px_per_s
    maps: int

    def argv(self, scene_dir, out_dir, seed, maps):
        """The train argv and ``maps`` predict-map argvs, as a user would
        type them. Map j is written under ``out_dir/map<j>``."""
        common = [
            f"--paths.cube={os.path.join(scene_dir, 'cube.hsc')}",
            f"--paths.labels={os.path.join(scene_dir, 'labels.hsl')}",
            f"--paths.split={os.path.join(scene_dir, 'split.json')}",
            f"--paths.checkpoint={os.path.join(out_dir, 'model.mgkp')}",
            f"--model.architecture={self.architecture}",
            f"--train.batch={self.batch}",
        ]
        train = ["train", *common, f"--paths.output={out_dir}",
                 f"--train.epochs={self.epochs}",
                 f"--train.base_lr={BASE_LR!r}",
                 f"--train.seed={seed + TRAIN_SEED_OFFSET}"]
        return train, [["predict-map", *common,
                        f"--paths.output={os.path.join(out_dir, f'map{j}')}"]
                       for j in range(maps)]


BIG_SCENE = Scene(size=256, train_per_class=300)

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="minigcn-n4800",
        scene=BIG_SCENE, architecture="minigcn", epochs=20, batch=32,
        uses_patches=False, maps=2),
    Workload(
        name="funet-patches",
        scene=Scene(size=64, train_per_class=50), architecture="funet-c",
        epochs=3, batch=32, uses_patches=True, maps=3),
    Workload(
        name="gcn-fullbatch",
        scene=BIG_SCENE, architecture="gcn", epochs=20, batch=1024,
        uses_patches=False, maps=1),
)}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


SCENE_FILES = ("cube.hsc", "labels.hsl", "split.json")


def write_scene(scene: Scene, seed: int, out_dir):
    """Write the scene files; returns ({file: sha256}, labels, test ids).

    ``labels`` is the flat row-major class grid and ``test ids`` the
    split's test pixels, which the map check scores against.
    """
    import numpy as np
    from mgk.data import save_cube, save_labels, save_split, synth_scene

    cube, grid, split = synth_scene(
        classes=scene.classes, size=scene.size, bands=scene.bands,
        noise_sigma=scene.noise_sigma, seed=seed,
        train_per_class=scene.train_per_class)
    os.makedirs(out_dir, exist_ok=True)
    save_cube(os.path.join(out_dir, "cube.hsc"), cube)
    save_labels(os.path.join(out_dir, "labels.hsl"), grid)
    save_split(os.path.join(out_dir, "split.json"), split)
    digests = {f: sha256(os.path.join(out_dir, f)) for f in SCENE_FILES}
    test_ids = np.sort(np.concatenate(list(split.test.values())))
    return digests, grid.labels.ravel().copy(), test_ids
