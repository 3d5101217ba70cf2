"""Dataset assembly, the training loop, and batched inference.

This is the glue between the file formats and the math modules. The
training graph is built on training pixels only, so inference is inductive:
``predict_pixels`` reads only the normalized cube, and each inference chunk
builds its own small KNN graph among the chunk's pixels using the training
(k, sigma). Everything downstream of a seed is deterministic, including the
training log and checkpoint bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (LabelGrid, SpectralCube, SplitSpec, extract_patches,
                   load_cube, load_labels, load_split, normalize_bands)
from .errors import ConfigError, ContractError, NumericError
from .graph import Graph, build_knn_rbf_graph
from .linalg import SparseSymMatrix
from .metrics import ConfusionMatrix, accumulate, overall_accuracy
from .model import Model, ModelConfig, build, loss_and_grads, predict
from .optim import AdamState, LrPolicy, adam_step, schedule_lr
from .sampler import SubgraphBatch, induce_subgraph, partition_epoch


def check_labels_match(cube: SpectralCube, grid: LabelGrid) -> None:
    if (grid.height, grid.width) != (cube.height, cube.width):
        raise ConfigError(
            f"labels {grid.height}x{grid.width} do not match "
            f"cube {cube.height}x{cube.width}"
        )


@dataclass
class Dataset:
    """Normalized cube plus labels and the train/test split."""

    cube: SpectralCube
    grid: LabelGrid
    split: SplitSpec

    def __post_init__(self):
        check_labels_match(self.cube, self.grid)
        self.split.validate_against(self.grid)

    @property
    def num_classes(self) -> int:
        return max(max(self.split.train), max(self.split.test))

    def part_pixels(self, part: str):
        """(pixel_ids, zero_based_classes) for 'train' or 'test', sorted by
        pixel index so ordering never depends on dict iteration."""
        section = getattr(self.split, part)
        if not section:
            raise ContractError(f"the {part} split has no pixels")
        ids = np.concatenate([v for _, v in sorted(section.items())])
        classes = np.concatenate([
            np.full(v.size, c - 1, dtype=np.int64)
            for c, v in sorted(section.items())
        ])
        order = np.argsort(ids, kind="stable")
        return ids[order], classes[order]


def load_dataset(cube_path, labels_path, split_path) -> Dataset:
    cube = normalize_bands(load_cube(cube_path))
    grid = load_labels(labels_path)
    split = load_split(split_path)
    return Dataset(cube=cube, grid=grid, split=split)


def dataset_from_parts(cube, grid, split) -> Dataset:
    return Dataset(cube=normalize_bands(cube), grid=grid, split=split)


def _one_hot(classes: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((classes.size, width))
    out[np.arange(classes.size), classes] = 1.0
    return out


def chunk_prop(features: np.ndarray, k: int, sigma: float) -> SparseSymMatrix:
    """Within-chunk propagation operator for inference.

    k is clamped to chunk_size - 1 for undersized trailing chunks; a
    singleton chunk propagates through its self-loop alone.
    """
    n = features.shape[0]
    if n == 1:
        return SparseSymMatrix.identity(1)
    return build_knn_rbf_graph(features, min(k, n - 1), sigma).prop


def fold_singleton_tail(batches: tuple) -> tuple:
    """Merge a one-node last batch into the batch before it, since batch
    norm cannot train on a single node; other partitions pass unchanged."""
    if len(batches) > 1 and batches[-1].size == 1:
        return batches[:-2] + (np.concatenate(batches[-2:]),)
    return batches


@dataclass
class TrainResult:
    model: Model
    log_rows: list  # (epoch, lr, loss, train_oa)
    graph: Optional[Graph]


def train_model(ds: Dataset, model_cfg: ModelConfig, *, epochs: int,
                batch: int, base_lr: float, l2: float, bn_momentum: float,
                seed: int, graph_k: int, graph_sigma: float,
                lr_interval: int = 50) -> TrainResult:
    """Seeded end-to-end training on the dataset's train pixels.

    gcn trains full batch (one batch per epoch covering every train pixel);
    every other architecture partitions the train pixels into node-budget
    batches, re-drawn each epoch; a one-node last batch joins the one before
    it. Bitwise reproducible for a fixed seed.
    """
    train_ids, train_classes = ds.part_pixels("train")
    n_train = train_ids.size
    budget = n_train if model_cfg.architecture == "gcn" \
        else min(batch, n_train)
    if budget < 2:
        raise ContractError(f"training needs >= 2 nodes per batch, got "
                            f"{n_train} train pixels at batch {batch}")
    labels_hot = _one_hot(train_classes, model_cfg.classes)

    x_train = graph = None
    if model_cfg.uses_graph:
        x_train = ds.cube.pixels()[train_ids]
        graph = build_knn_rbf_graph(x_train, graph_k, graph_sigma)
    patches_train = None
    if model_cfg.uses_patches:
        patches_train = extract_patches(ds.cube, train_ids,
                                        model_cfg.patch_size)

    seeds = np.random.SeedSequence(seed).spawn(epochs + 1)
    mdl = build(model_cfg, seed=seeds[0])
    state = AdamState()
    policy = LrPolicy(base_lr=base_lr, max_iter=max(epochs, 1),
                      interval=lr_interval) if epochs > 0 else None

    log_rows = []
    for epoch in range(epochs):
        lr = schedule_lr(policy, epoch)
        part = partition_epoch(n_train, budget, seeds[1 + epoch])
        epoch_loss = 0.0
        preds = np.empty(n_train, dtype=np.int64)
        for ids in fold_singleton_tail(part.batches):
            prop = feats = None
            if graph is not None:
                prop = induce_subgraph(graph, ids).prop_s
                feats = x_train[ids]
            sub = SubgraphBatch(node_ids=ids, prop_s=prop, features=feats,
                                labels=labels_hot[ids])
            p = patches_train[ids] if patches_train is not None else None
            try:
                loss, grads, logits = loss_and_grads(
                    mdl, sub, patches=p, l2=l2, bn_momentum=bn_momentum
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}: {exc}") from exc
            adam_step(mdl.named_params(), grads, state, lr)
            epoch_loss += loss * ids.size
            preds[ids] = np.argmax(logits, axis=1)
        cm = accumulate(train_classes, preds, model_cfg.classes)
        log_rows.append((epoch, lr, epoch_loss / n_train,
                         overall_accuracy(cm)))
    return TrainResult(model=mdl, log_rows=log_rows, graph=graph)


def infer_model_config(ds: Dataset, architecture: str, *, gcn_hidden=128,
                       cnn_channels=(32, 64, 128), fusion_fc=128,
                       patch_size=7, input_bands=0, classes=0) -> ModelConfig:
    """Fill input_bands/classes from the dataset when left at 0."""
    return ModelConfig(
        architecture=architecture,
        input_bands=input_bands or ds.cube.bands,
        classes=classes or ds.num_classes,
        gcn_hidden=gcn_hidden,
        cnn_channels=tuple(cnn_channels),
        fusion_fc=fusion_fc,
        patch_size=patch_size,
    )


def predict_pixels(mdl: Model, cube: SpectralCube, pixel_ids, *,
                   batch: int, graph_k: int, graph_sigma: float
                   ) -> np.ndarray:
    """Zero-based predicted classes for arbitrary pixels of a normalized
    cube, chunked.

    Chunks follow the given pixel order; graph architectures get a fresh
    within-chunk KNN graph per chunk (training k and sigma).
    """
    pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
    cfg = mdl.cfg
    x_all = cube.pixels() if cfg.uses_graph else None
    out = np.empty(pixel_ids.size, dtype=np.int64)
    for start in range(0, pixel_ids.size, batch):
        ids = pixel_ids[start:start + batch]
        prop = feats = None
        if cfg.uses_graph:
            feats = x_all[ids]
            prop = chunk_prop(feats, graph_k, graph_sigma)
        sub = SubgraphBatch(node_ids=np.arange(ids.size), prop_s=prop,
                            features=feats)
        p = extract_patches(cube, ids, cfg.patch_size) \
            if cfg.uses_patches else None
        out[start:start + batch] = predict(mdl, sub, patches=p)
    return out


def evaluate_part(mdl: Model, ds: Dataset, part: str, *, batch: int,
                  graph_k: int, graph_sigma: float) -> ConfusionMatrix:
    ids, classes = ds.part_pixels(part)
    preds = predict_pixels(mdl, ds.cube, ids, batch=batch, graph_k=graph_k,
                           graph_sigma=graph_sigma)
    return accumulate(classes, preds, mdl.cfg.classes)


def format_log_rows(rows) -> str:
    """Training log as CSV text; stable formatting so runs diff cleanly."""
    lines = ["epoch,lr,loss,train_oa"]
    for epoch, lr, loss, oa in rows:
        lines.append(f"{epoch},{lr!r},{loss!r},{oa!r}")
    return "\n".join(lines) + "\n"
