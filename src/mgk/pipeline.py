"""Dataset assembly, the training loop, and batched inference.

This is the glue between the file formats and the math modules. Training
comes in two parts. ``train_set`` makes every refusal, then reads the
train pixels from the dataset: their classes, their float64 spectra for a
graph model and their float32 patches for a patch model. ``train_model``
trains on that train set alone; ``mgk train`` drops the dataset between
the two, so the cube is freed before the first epoch. The training graph
is built on training pixels only. Each training step hands the model its
batch as arrays: features, one-hot labels, patches, and the propagation
operator of the subgraph the batch induces (for ``gcn``, the whole
training graph). ``train_epoch`` induces an epoch's batches in one
``induce_subgraph`` call, and each step takes its batch's diagonal block
of that operator. Inference is inductive: ``predict_pixels`` reads only
the normalized cube, and each inference chunk builds its own small KNN
graph among the chunk's pixels with the (k, sigma) of the model's config,
the values its training graph was built with. For graph-only models, up
to ``PREDICT_GROUP_ROWS`` rows of full chunks are built as one stacked,
block-diagonal graph and run through one forward. Each chunk keeps its own
graph, but the BLAS may split a group's dense products into rows
otherwise than a chunk's, so the logits can differ in the last bits from
those of one chunk at a time; for a given batch and
``PREDICT_GROUP_ROWS`` they are fixed. Patch models do not cut patches for
inference: block 1 of the spatial branch sums tap products that each image
row gets once (``_RowTaps``), shared by every patch that overlaps the row.
Everything downstream of a seed is deterministic, including the training
log and checkpoint bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (LabelGrid, SpectralCube, SplitSpec, extract_patches,
                   load_labels, load_normalized_cube, load_split,
                   normalize_bands, patch_rows_cols)
from .errors import ConfigError, ContractError, NumericError
from .graph import build_knn_rbf_graph, renormalized_propagation
from .linalg import SparseSymMatrix
from .metrics import ConfusionMatrix, accumulate, overall_accuracy
from .model import (Model, ModelConfig, TapPatches, block1_taps, build,
                    loss_and_grads, predict)
from .optim import AdamState, adam_step, schedule_lr
from .sampler import induce_subgraph, partition_epoch

# Rows per inference group of a graph-only model's full chunks; at least
# one chunk.
PREDICT_GROUP_ROWS = 1024
# The largest float32 patch tensor of the train pixels that training will
# allocate, in bytes (2 GiB).
PATCH_BYTES_MAX = 1 << 31


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
        """The largest class id in either section of the split."""
        ids = [*self.split.train, *self.split.test]
        if not ids:
            raise ContractError("the split has no classes")
        return max(ids)

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
    """The files' dataset, its cube normalized as it is read."""
    return Dataset(cube=load_normalized_cube(cube_path),
                   grid=load_labels(labels_path), split=load_split(split_path))


def dataset_from_parts(cube, grid, split) -> Dataset:
    return Dataset(cube=normalize_bands(cube), grid=grid, split=split)


def _one_hot(classes: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((classes.size, width))
    out[np.arange(classes.size), classes] = 1.0
    return out


def chunk_prop(features: np.ndarray, k: int, sigma: float) -> SparseSymMatrix:
    """Block-diagonal propagation operator of C inference chunks.

    ``features`` is ``(C, c, bands)``; block q is the operator of chunk q's
    own KNN graph. k is clamped to c - 1 for undersized trailing chunks; a
    singleton chunk propagates through its self-loop alone.
    """
    chunks, c = features.shape[:2]
    if c == 1:
        return SparseSymMatrix.identity(chunks)
    g = build_knn_rbf_graph(features, min(k, c - 1), sigma)
    return renormalized_propagation(g.adjacency)


def fold_singleton_tail(batches: tuple) -> tuple:
    """Merge a one-node last batch into the batch before it, since batch
    norm cannot train on a single node; other partitions pass unchanged."""
    if len(batches) > 1 and batches[-1].size == 1:
        return batches[:-2] + (np.concatenate(batches[-2:]),)
    return batches


def train_epoch(mdl: Model, state: AdamState, graph, features, labels_hot,
                patches, budget, seed, lr, *, l2, bn_momentum) -> tuple:
    """One training epoch over n nodes, in place on ``mdl`` and ``state``.

    Draws the epoch's ``partition_epoch(n, budget, seed)`` and folds a
    one-node tail into the batch before it. A graph model (``graph`` not
    None) induces all batches in one ``induce_subgraph`` call and steps on
    their diagonal blocks of its operator. Each batch takes one
    ``loss_and_grads`` on its rows of ``features``, ``labels_hot`` and
    ``patches`` (either may be None when the model does not use it), then
    one ``adam_step`` at rate ``lr``. Returns the epoch's loss sum, each
    batch's mean loss weighted by its size, and the n predicted classes.
    ``train_model`` and ``mgk bench`` both run their epochs through here.
    """
    n = labels_hot.shape[0]
    batches = fold_singleton_tail(partition_epoch(n, budget, seed))
    props = [None] * len(batches)
    if graph is not None:
        props = induce_subgraph(graph, batches).prop_s.diagonal_blocks(
            [ids.size for ids in batches])
    loss_sum = 0.0
    preds = np.empty(n, dtype=np.int64)
    for ids, prop in zip(batches, props):
        feats = features[ids] if graph is not None else None
        p = patches[ids] if patches is not None else None
        loss, grads, logits = loss_and_grads(
            mdl, labels_hot[ids], feats, prop, p, l2=l2,
            bn_momentum=bn_momentum)
        adam_step(mdl.named_params(), grads, state, lr)
        loss_sum += loss * ids.size
        preds[ids] = np.argmax(logits, axis=1)
    return loss_sum, preds


@dataclass
class TrainResult:
    model: Model
    log_rows: list  # (epoch, lr, loss, train_oa)


def train_set(ds: Dataset, model_cfg: ModelConfig, *, epochs: int,
              batch: int, base_lr: float, l2: float, bn_momentum: float,
              seed) -> tuple:
    """The train set that ``train_model`` trains on, built from the
    dataset's train pixels: ``(classes, features, patches, budget)``.

    ``classes`` are the zero-based train classes in pixel order,
    ``features`` their float64 spectra (graph models, else None) and
    ``patches`` their float32 ``extract_patches`` (patch models, else
    None); ``budget`` is the node budget of a batch. It takes
    ``train_model``'s keywords (``seed`` is not read) and makes every
    refusal that ``train_model`` makes, before any work: values that cannot
    train, a model that does not fit the data, and a patch size whose train
    patches would take more than ``PATCH_BYTES_MAX`` bytes. The train set
    holds nothing of ``ds``, so the cube can be freed once it is built.
    """
    if epochs < 0:
        raise ContractError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 <= bn_momentum <= 1.0:
        raise ContractError(
            f"bn_momentum must be in [0, 1], got {bn_momentum}")
    if not l2 >= 0.0:
        raise ContractError(f"l2 must be >= 0, got {l2}")
    if l2 == np.inf:
        raise ContractError(f"l2 must be finite, got {l2}")
    if not 0.0 < base_lr < np.inf:
        raise ContractError(
            f"base_lr must be positive and finite, got {base_lr}")
    if model_cfg.classes < ds.num_classes:
        raise ContractError(f"model.classes={model_cfg.classes} is below "
                            f"the split's {ds.num_classes} classes")
    if model_cfg.input_bands != ds.cube.bands:
        raise ContractError(f"model.input_bands={model_cfg.input_bands} is "
                            f"not the cube's {ds.cube.bands} bands")
    train_ids, classes = ds.part_pixels("train")
    n_train = train_ids.size
    budget = n_train if model_cfg.architecture == "gcn" \
        else min(batch, n_train)
    if budget < 2:
        raise ContractError(f"training needs >= 2 nodes per batch, got "
                            f"{n_train} train pixels at batch {batch}")
    if model_cfg.uses_graph and model_cfg.graph_k >= n_train:
        raise ContractError(f"graph_k={model_cfg.graph_k} is not below the "
                            f"{n_train} train pixels")
    size = model_cfg.patch_size
    patch_bytes = n_train * size * size * model_cfg.input_bands * 4
    if model_cfg.uses_patches and patch_bytes > PATCH_BYTES_MAX:
        raise ContractError(
            f"model.patch_size={size} needs {patch_bytes} bytes of patches "
            f"for the {n_train} train pixels; the limit is {PATCH_BYTES_MAX}")
    features = ds.cube.pixels(train_ids) if model_cfg.uses_graph else None
    patches = extract_patches(ds.cube, train_ids, size) \
        if model_cfg.uses_patches else None
    return classes, features, patches, budget


def train_model(ds, model_cfg: ModelConfig, *, epochs: int, batch: int,
                base_lr: float, l2: float, bn_momentum: float,
                seed) -> TrainResult:
    """Seeded end-to-end training on a dataset's train pixels.

    ``ds`` is a ``Dataset``, whose ``train_set`` this builds first, or the
    train set that ``train_set`` built from one with the same keywords.
    ``mgk train`` passes the train set and has dropped the Dataset, so the
    cube is freed before the first epoch, and training holds the train set,
    the KNN graph of its spectra, the model and Adam's state. A patch
    model's train patches stay float32; its first conv casts each batch's
    rows to float64, which is exact. gcn trains full batch (one batch per
    epoch covering every train pixel); every other architecture partitions
    the train pixels into node-budget batches, re-drawn each epoch; a
    one-node last batch joins the one before it. Graph architectures induce
    an epoch's batches in one call and step on its diagonal blocks, each
    bitwise its batch's own operator. Bitwise reproducible for a fixed
    seed. The refusals are ``train_set``'s, all before any work.
    """
    if isinstance(ds, Dataset):
        ds = train_set(ds, model_cfg, epochs=epochs, batch=batch,
                       base_lr=base_lr, l2=l2, bn_momentum=bn_momentum,
                       seed=seed)
    classes, features, patches, budget = ds
    lrs = [schedule_lr(base_lr, e, epochs) for e in range(epochs)]
    labels_hot = _one_hot(classes, model_cfg.classes)
    graph = None
    if model_cfg.uses_graph:
        graph = build_knn_rbf_graph(features, model_cfg.graph_k,
                                    model_cfg.graph_sigma)

    seeds = np.random.SeedSequence(seed).spawn(epochs + 1)
    mdl = build(model_cfg, seed=seeds[0])
    state = AdamState()

    log_rows = []
    for epoch, lr in enumerate(lrs):
        try:
            loss_sum, preds = train_epoch(
                mdl, state, graph, features, labels_hot, patches, budget,
                seeds[1 + epoch], lr, l2=l2, bn_momentum=bn_momentum)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        cm = accumulate(classes, preds, model_cfg.classes)
        log_rows.append((epoch, lr, loss_sum / classes.size,
                         overall_accuracy(cm)))
    return TrainResult(model=mdl, log_rows=log_rows)


def infer_model_config(ds: Dataset, architecture: str, *, input_bands=0,
                       classes=0, **fields) -> ModelConfig:
    """Fill input_bands/classes from the dataset when left at 0; the other
    fields pass through to ModelConfig, whose defaults they keep."""
    return ModelConfig(architecture=architecture,
                       input_bands=input_bands or ds.cube.bands,
                       classes=classes or ds.num_classes, **fields)


def check_inference_batch(batch: int) -> None:
    """Refuse an inference chunk size below one pixel."""
    if batch < 1:
        raise ContractError(f"inference batch must be >= 1, got {batch}")


class _RowTaps:
    """Block 1's tap products of whole rows of a cube, kept for one model's
    inference while the current group's patches read them.

    A row is read as its pixels' 1x1 patches and multiplied in one product
    of its own (``block1_taps``), so a position's bits depend on its row
    alone: not on which pixels are asked for, in what order or chunks. The
    rows live in the slots of one buffer, which grows to the most rows one
    group reads; a row that the next group reads again keeps its slot.
    """

    def __init__(self, mdl: Model, cube: SpectralCube):
        self.mdl, self.cube = mdl, cube
        self.slot = np.full(cube.height, -1)  # each kept row's slot, or -1
        self.rows = block1_taps(mdl, np.empty((0, cube.width, cube.bands)))

    def patches(self, ids) -> TapPatches:
        width = self.cube.width
        rr, cc = patch_rows_cols(self.cube, ids, self.mdl.cfg.patch_size)
        read = np.zeros(self.cube.height, dtype=bool)
        read[rr] = True
        self.slot[~read] = -1
        new = np.flatnonzero(read & (self.slot < 0))
        free = np.setdiff1d(np.arange(len(self.rows)), self.slot[read])
        if free.size < new.size:
            grow = np.empty((new.size - free.size,) + self.rows.shape[1:])
            free = np.append(free, np.arange(len(self.rows),
                                             len(self.rows) + len(grow)))
            self.rows = np.concatenate([self.rows, grow])
        self.slot[new] = free[:new.size]
        if new.size:
            pixels = extract_patches(
                self.cube, (new[:, None] * width + np.arange(width)).ravel(),
                1)
            self.rows[self.slot[new]] = block1_taps(
                self.mdl, pixels.reshape(new.size, width, -1))
        cells = (self.slot[rr] * width)[:, :, None] + cc[:, None, :]
        return TapPatches(self.rows.reshape(-1, *self.rows.shape[2:]), cells)


def predict_pixels(mdl: Model, cube: SpectralCube, pixel_ids, *,
                   batch: int) -> np.ndarray:
    """Zero-based predicted classes for arbitrary pixels of a normalized
    cube, chunked.

    Chunks of ``batch`` pixels follow the given pixel order; graph
    architectures get a fresh within-chunk KNN graph per chunk, built with
    the config's ``graph_k`` and ``graph_sigma``. Full chunks run in groups
    of up to ``PREDICT_GROUP_ROWS`` rows (at least one chunk): one stacked
    KNN build and one eval-mode forward per group, over the block-diagonal
    operator of its chunks. A short trailing chunk is a group of its own.
    Patch architectures keep one chunk per group, since their conv
    temporaries grow with the rows, and so do one-pixel chunks: numpy
    multiplies a single row as a vector, whose sums may differ in the last
    bit from a matrix product's. Each chunk keeps its own graph and eval
    mode acts row by row, but the BLAS may split a group's dense products
    into rows otherwise than a chunk's, so the logits can differ in the
    last bits from those of one chunk at a time: on a 144-pixel scene at
    batch 10, 60-row groups moved ``minigcn``'s by up to 4.4e-16. For a
    given ``batch`` and ``PREDICT_GROUP_ROWS`` they are fixed.
    A patch architecture's block 1 reads ``TapPatches`` from one
    ``_RowTaps`` for the whole call, which keeps each image row's tap
    products while the current group's patches read that row; its logits
    differ in the last bits from a forward over ``extract_patches``'
    patches, and do not depend on the pixel order or chunking.
    """
    check_inference_batch(batch)
    pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
    cfg = mdl.cfg
    size = pixel_ids.size
    full = size - size % batch
    step = batch if cfg.uses_patches or batch == 1 \
        else max(1, PREDICT_GROUP_ROWS // batch) * batch
    groups = [(start, min(start + step, full), batch)
              for start in range(0, full, step)]
    if full < size:
        groups.append((full, size, size - full))
    out = np.empty(size, dtype=np.int64)
    taps = _RowTaps(mdl, cube) if cfg.uses_patches else None
    for start, stop, c in groups:
        ids = pixel_ids[start:stop]
        prop = feats = patches = None
        if cfg.uses_graph:
            feats = cube.pixels(ids)
            prop = chunk_prop(feats.reshape(-1, c, feats.shape[1]),
                              cfg.graph_k, cfg.graph_sigma)
        if taps is not None:
            patches = taps.patches(ids)
        out[start:stop] = predict(mdl, feats, prop, patches)
    return out


def evaluate_part(mdl: Model, ds: Dataset, part: str, *,
                  batch: int) -> ConfusionMatrix:
    ids, classes = ds.part_pixels(part)
    preds = predict_pixels(mdl, ds.cube, ids, batch=batch)
    return accumulate(classes, preds, mdl.cfg.classes)


def format_log_rows(rows) -> str:
    """Training log as CSV text; stable formatting so runs diff cleanly."""
    lines = ["epoch,lr,loss,train_oa"]
    for epoch, lr, loss, oa in rows:
        lines.append(f"{epoch},{lr!r},{loss!r},{oa!r}")
    return "\n".join(lines) + "\n"
