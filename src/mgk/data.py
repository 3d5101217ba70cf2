"""Hyperspectral cubes, label grids, train/test splits, and synthetic scenes.

File formats (all little-endian, bit-exact round-trips):

* cube:   magic ``HSC1`` + one-line JSON header
          {height, width, bands, dtype: "f32le", order: "band-sequential"}
          + newline + raw float32 payload, band after band, rows major.
* labels: magic ``HSL1`` + one-line JSON header {height, width} + newline
          + raw uint16 payload, row-major. Class 0 means unlabeled.
* split:  plain JSON {"train": {"<class>": [pixel indices]}, "test": ...}
          with linear row-major pixel indices (index = row * width + col).

Cubes store float32. The learning path reads them through two gathers,
``SpectralCube.pixels`` (spectra) and ``extract_patches`` (edge-replicated
windows), each of which converts only the pixels it is asked for to
float64; no whole-cube float64 copy outlives ``normalize_bands``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"HSL1"


@dataclass
class SpectralCube:
    """Image cube with shape (height, width, bands), float32."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ContractError(f"cube must be 3-D (H, W, D), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ContractError("cube values must be finite")
        self.values = v

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]

    def pixels(self, ids) -> np.ndarray:
        """float64 (len(ids), bands) spectra of linear row-major pixel ids."""
        ids = _pixel_ids(self, ids)
        return self.values.reshape(-1, self.bands)[ids].astype(np.float64)


def _pixel_ids(cube: SpectralCube, ids) -> np.ndarray:
    """ids as int64; a ContractError names the first one off the image."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    bad = ids[(ids < 0) | (ids >= cube.height * cube.width)]
    if bad.size:
        raise ContractError(f"pixel id {bad[0]} outside image "
                            f"{cube.height}x{cube.width}")
    return ids


@dataclass
class LabelGrid:
    """Per-pixel class ids (uint16); 0 marks unlabeled pixels."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise ContractError(f"labels must be 2-D, got {lab.shape}")
        if lab.size and (lab.min() < 0 or lab.max() > np.iinfo(np.uint16).max):
            raise ContractError("label ids must fit in uint16")
        self.labels = lab.astype(np.uint16)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass
class SplitSpec:
    """Disjoint train/test pixel indices per class id."""

    train: dict
    test: dict

    def __post_init__(self):
        self.train = {int(c): np.asarray(v, dtype=np.int64)
                      for c, v in self.train.items()}
        self.test = {int(c): np.asarray(v, dtype=np.int64)
                     for c, v in self.test.items()}
        for c in [*self.train, *self.test]:
            if c < 1:
                raise ContractError(f"split class ids must be >= 1, got {c}")
        owners = [(name, c) for name, part in (("train", self.train),
                                               ("test", self.test))
                  for c in part]
        parts = [*self.train.values(), *self.test.values()]
        # one stable sort puts each repeat after its pixel's first listing;
        # the first repeat in listing order is named with that first owner
        ids = np.concatenate([np.zeros(0, np.int64), *parts])
        owner = np.repeat(np.arange(len(parts)), [v.size for v in parts])
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if repeats.size:
            i = int(repeats.min())
            first = order[np.searchsorted(ranked, ids[i])]
            (a, ca), (b, cb) = owners[owner[first]], owners[owner[i]]
            if owner[first] == owner[i]:
                raise ContractError(f"pixel index {ids[i]} repeated inside "
                                    f"{a} class {ca}")
            raise ContractError(f"pixel index {ids[i]} appears in both "
                                f"{a}/{ca} and {b}/{cb}")

    def counts(self) -> dict:
        return {
            "train": {c: int(v.size) for c, v in sorted(self.train.items())},
            "test": {c: int(v.size) for c, v in sorted(self.test.items())},
        }

    def validate_against(self, grid: LabelGrid) -> None:
        """Every index must carry its owning class in the label grid."""
        flat = grid.labels.ravel()
        for part_name, part in (("train", self.train), ("test", self.test)):
            for c, idx in part.items():
                if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
                    raise ContractError(
                        f"{part_name} class {c} has pixel index out of range"
                    )
                wrong = np.nonzero(flat[idx] != c)[0]
                if wrong.size:
                    i = int(idx[wrong[0]])
                    raise ContractError(
                        f"pixel {i} listed under class {c} but labeled "
                        f"{int(flat[i])}"
                    )


# ----------------------------------------------------------------- file I/O

def _read_header(data: bytes, magic: bytes, what: str):
    if data[:len(magic)] != magic:
        raise FormatError(
            f"bad {what} magic {data[:len(magic)]!r}, expected {magic!r}",
            offset=0,
        )
    nl = data.find(b"\n", len(magic))
    if nl < 0:
        raise FormatError(f"{what} header has no terminating newline",
                          offset=len(data))
    try:
        header = json.loads(data[len(magic):nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unparseable {what} header: {exc}",
                          offset=len(magic)) from exc
    if not isinstance(header, dict):
        raise FormatError(f"{what} header must be a JSON object",
                          offset=len(magic))
    return header, nl + 1


def read_json(path, what: str):
    """The JSON document in the file at path. Bytes that are not UTF-8, or
    text that is not JSON, raise a FormatError whose message starts with
    ``what``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: {exc}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: {exc}", offset=exc.pos) from exc


def _is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer in int64 range; a bool,
    a float such as 3.0 and a string such as "3" are not."""
    return type(value) is int and -2 ** 63 <= value < 2 ** 63


def _header_dims(header: dict, keys, what: str) -> tuple:
    """The header's named dims; a FormatError names one that is missing or
    is not a positive integer."""
    for key in keys:
        if key not in header:
            raise FormatError(f"{what} header is missing {key!r}", offset=4)
        if not (_is_json_int(header[key]) and header[key] >= 1):
            raise FormatError(f"{what} header {key!r} must be a positive "
                              f"integer, got {header[key]!r}", offset=4)
    return tuple(header[key] for key in keys)


def save_cube(path, cube: SpectralCube) -> None:
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "order": "band-sequential",
    }
    payload = np.ascontiguousarray(
        cube.values.transpose(2, 0, 1), dtype="<f4"
    ).tobytes()
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def load_cube(path) -> SpectralCube:
    with open(path, "rb") as fh:
        data = fh.read()
    header, start = _read_header(data, CUBE_MAGIC, "cube")
    h, w, d = _header_dims(header, ("height", "width", "bands"), "cube")
    for key in ("dtype", "order"):
        if key not in header:
            raise FormatError(f"cube header is missing {key!r}", offset=4)
    if header["dtype"] != "f32le" or header["order"] != "band-sequential":
        raise FormatError(
            f"unsupported cube encoding {header['dtype']}/{header['order']}",
            offset=4,
        )
    expected = h * w * d * 4
    if len(data) - start != expected:
        raise FormatError(
            f"cube payload is {len(data) - start} bytes, expected {expected}",
            offset=start + min(len(data) - start, expected),
        )
    vals = np.frombuffer(data, dtype="<f4", offset=start).reshape(d, h, w)
    return SpectralCube(values=vals.transpose(1, 2, 0).copy())


def save_labels(path, grid: LabelGrid) -> None:
    header = {"height": grid.height, "width": grid.width}
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(grid.labels, dtype="<u2").tobytes())


def load_labels(path) -> LabelGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    header, start = _read_header(data, LABEL_MAGIC, "labels")
    h, w = _header_dims(header, ("height", "width"), "label")
    expected = h * w * 2
    if len(data) - start != expected:
        raise FormatError(
            f"label payload is {len(data) - start} bytes, expected {expected}",
            offset=start + min(len(data) - start, expected),
        )
    lab = np.frombuffer(data, dtype="<u2", offset=start).reshape(h, w)
    return LabelGrid(labels=lab.copy())


def save_split(path, split: SplitSpec) -> None:
    doc = {
        part: {str(c): [int(i) for i in idx]
               for c, idx in sorted(getattr(split, part).items())}
        for part in ("train", "test")
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_split(path) -> SplitSpec:
    doc = read_json(path, "split file is not valid JSON")
    if not isinstance(doc, dict) or set(doc) != {"train", "test"}:
        raise FormatError("split JSON must have exactly 'train' and 'test' "
                          "sections")
    for part, section in doc.items():
        if not isinstance(section, dict):
            raise FormatError(f"split section {part!r} must be an object")
        for c, ids in section.items():
            if not isinstance(ids, list):
                raise FormatError(f"split {part} class {c} must be a list of "
                                  f"pixel ids")
            bad = [i for i in ids if not _is_json_int(i)]
            if bad:
                raise FormatError(f"split {part} class {c}: pixel id "
                                  f"{bad[0]!r} is not an integer")
    try:
        return SplitSpec(train=doc["train"], test=doc["test"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed split sections: {exc}") from exc


# ------------------------------------------------------------ normalization

def normalize_bands(cube: SpectralCube) -> SpectralCube:
    """Min-max scale each band to [0, 1]; constant bands go to 0.

    Works in place on one float64 copy. A constant band is exactly 0 once
    its minimum is subtracted and is then divided by 1, not by its zero
    span. Idempotent: applying it twice returns the same bytes.
    """
    v = cube.values.astype(np.float64)
    lo = v.min(axis=(0, 1))
    span = v.max(axis=(0, 1)) - lo
    v -= lo
    v /= np.where(span > 0.0, span, 1.0)
    return SpectralCube(values=v.astype(np.float32))


# ----------------------------------------------------------------- patching

def patch_rows_cols(cube: SpectralCube, pixel_ids, size: int) -> tuple:
    """The image rows and columns that the size x size patches centered at
    linear row-major pixel ids read: ``(rr, cc)``, each ``(len(pixel_ids),
    size)``, so that cell (a, b) of patch i is pixel ``(rr[i, a], cc[i,
    b])``.

    Coordinates outside the image replicate the nearest edge pixel, so an
    image smaller than the patch repeats its edges. size must be odd.
    """
    if size < 1 or size % 2 == 0:
        raise ContractError(f"patch size must be odd and >= 1, got {size}")
    rows, cols = np.divmod(_pixel_ids(cube, pixel_ids), cube.width)
    offsets = np.arange(size) - size // 2
    return (np.clip(rows[:, None] + offsets, 0, cube.height - 1),
            np.clip(cols[:, None] + offsets, 0, cube.width - 1))


def extract_patches(cube: SpectralCube, pixel_ids, size: int = 7
                    ) -> np.ndarray:
    """(len(pixel_ids), size, size, bands) float64 patches centered at
    linear row-major pixel ids, in one gather of ``patch_rows_cols``'
    pixels."""
    rr, cc = patch_rows_cols(cube, pixel_ids, size)
    return cube.values[rr[:, :, None], cc[:, None, :]].astype(np.float64)


# ----------------------------------------------------------- synthetic data

def synth_scene(classes: int, size: int, bands: int, noise_sigma: float,
                seed, train_per_class: int = 50):
    """Deterministic labeled scene: striped regions of noisy prototypes.

    The image splits into ``classes`` vertical stripes; class c's prototype
    is 0.5 + 0.35 sin(2 pi (c+1) b / bands + phase_c) over band index b,
    plus iid gaussian noise. Distinct integer frequencies keep prototypes
    near-orthogonal, so scenes are nearest-prototype separable whenever
    noise_sigma <= ~0.035. Returns (cube, labels, split) with a balanced
    per-class train draw; everything is a pure function of the arguments.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if bands < 1 or size < 1:
        raise ConfigError(f"size and bands must be >= 1, got {size}, {bands}")
    if size < classes:
        raise ConfigError(
            f"image of width {size} cannot hold {classes} stripe regions"
        )
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if train_per_class < 1:
        raise ConfigError("train_per_class must be >= 1")

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=classes)
    b = np.arange(bands)
    protos = np.stack([
        0.5 + 0.35 * np.sin(2.0 * np.pi * (c + 1) * b / bands + phases[c])
        for c in range(classes)
    ])

    stripes = np.array_split(np.arange(size), classes)
    labels = np.zeros((size, size), dtype=np.uint16)
    for c, cols in enumerate(stripes):
        labels[:, cols] = c + 1

    values = protos[labels - 1].astype(np.float64)
    values += rng.normal(0.0, noise_sigma, size=values.shape)
    cube = SpectralCube(values=values.astype(np.float32))
    grid = LabelGrid(labels=labels)

    train, test = {}, {}
    flat = labels.ravel()
    for c in range(1, classes + 1):
        members = np.nonzero(flat == c)[0]
        if members.size <= train_per_class:
            raise ConfigError(
                f"class {c} region has {members.size} pixels; cannot draw "
                f"{train_per_class} train pixels and keep a test set"
            )
        chosen = rng.choice(members, size=train_per_class, replace=False)
        chosen = np.sort(chosen)
        train[c] = chosen
        test[c] = np.setdiff1d(members, chosen)
    return cube, grid, SplitSpec(train=train, test=test)
