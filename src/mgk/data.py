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
float64. The whole-cube stages work on the cube's pixel matrix (height *
width rows of ``bands`` values) in row blocks of at most ``_BLOCK_VALUES``
values: ``load_cube`` reads each block's run of every band into one
preallocated cube, ``normalize_bands`` and ``synth_scene`` compute each
block in float64 into one float32 result, and ``SpectralCube`` checks
finiteness a block at a time. ``save_cube`` writes one band at a time. So
beside its cube (for ``normalize_bands``, its input and its result) a
stage holds a few blocks or one band, never a whole-cube float64 copy or a
second float32 one; the one exception is a one-band cube whose minimum is
a mix of +0.0 and -0.0 (see ``normalize_bands``). Each element goes
through the operations of one whole-cube step, so the bytes do not depend
on the block size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"HSL1"

# Values per row block of a whole-cube stage: 1 MiB as float64.
_BLOCK_VALUES = 1 << 17


def _row_blocks(rows: int, width: int) -> list:
    """Slices that cover ``rows`` rows of ``width`` values each, in blocks
    of at most ``_BLOCK_VALUES`` values (one row when a row is longer)."""
    step = max(1, _BLOCK_VALUES // max(width, 1))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


@dataclass
class SpectralCube:
    """Image cube with shape (height, width, bands), float32."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ContractError(f"cube must be 3-D (H, W, D), got {v.shape}")
        self.values = np.ascontiguousarray(v)
        flat = _matrix(self.values)
        if not all(np.isfinite(flat[rows]).all()
                   for rows in _row_blocks(*flat.shape)):
            raise ContractError("cube values must be finite")

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
        return _matrix(self.values)[ids].astype(np.float64)


def _matrix(values: np.ndarray) -> np.ndarray:
    """The (height * width, bands) pixel matrix of a C-contiguous cube
    array, as a view: one row per linear row-major pixel id."""
    h, w, d = values.shape
    return values.reshape(h * w, d)


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
    """Write the cube file, its payload one band at a time."""
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "order": "band-sequential",
    }
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for band in range(cube.bands):
            fh.write(np.ascontiguousarray(cube.values[:, :, band],
                                          dtype="<f4"))


def _read_head(fh, magic: bytes) -> bytes:
    """The file's first bytes: through the first newline after its magic,
    or as far as the magic matched, or the whole file."""
    head = bytearray()
    while chunk := fh.read(1 << 12):
        head += chunk
        if (head[:len(magic)] != magic[:len(head)]
                or head.find(b"\n", len(magic)) >= 0):
            break
    return bytes(head)


def load_cube(path) -> SpectralCube:
    """Read a cube file. The band-sequential payload is read one row block
    at a time, each block's run of every band, into one preallocated
    (height, width, bands) array."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        header, start = _read_header(_read_head(fh, CUBE_MAGIC), CUBE_MAGIC,
                                     "cube")
        h, w, d = _header_dims(header, ("height", "width", "bands"), "cube")
        for key in ("dtype", "order"):
            if key not in header:
                raise FormatError(f"cube header is missing {key!r}", offset=4)
        if header["dtype"] != "f32le" or header["order"] != "band-sequential":
            raise FormatError(
                f"unsupported cube encoding {header['dtype']}/"
                f"{header['order']}", offset=4,
            )
        expected = h * w * d * 4
        if size - start != expected:
            raise FormatError(
                f"cube payload is {size - start} bytes, expected {expected}",
                offset=start + min(size - start, expected),
            )
        values = np.empty((h, w, d), dtype=np.float32)
        flat = _matrix(values)
        blocks = _row_blocks(h * w, d)
        runs = np.empty((d, blocks[0].stop), dtype="<f4")
        for rows in blocks:
            block = runs[:, :rows.stop - rows.start]
            for band in range(d):
                offset = fh.seek(start + (band * h * w + rows.start) * 4)
                got = fh.readinto(block[band])
                if got != block[band].nbytes:
                    raise FormatError("cube file ended while it was read",
                                      offset=offset + got)
            flat[rows] = block.T
    return SpectralCube(values=values)


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
    """Min-max scale each band to [0, 1]; constant bands go to +0.0.

    Each band's min and max are taken on the float32 cube, which is exact.
    Then each row block is cast to float64, has the minima subtracted, is
    divided by the spans and is cast back into one float32 result: the
    operations of one whole-cube float64 step, element by element. A
    constant band is divided by 1, not by its zero span, and its results
    are then set to +0.0, which a band of both zeros would otherwise miss.
    Idempotent: applying it twice returns the same bytes.
    """
    flat = _matrix(cube.values)
    blocks = _row_blocks(*flat.shape)
    lo = np.min([flat[rows].min(axis=0) for rows in blocks], axis=0)
    hi = np.max([flat[rows].max(axis=0) for rows in blocks], axis=0)
    lo = lo.astype(np.float64)
    span = hi - lo
    if cube.bands == 1 and lo[0] == 0.0 < span[0] and _both_zeros(flat):
        # Which zero a one-band min returns depends on the reduction's SIMD
        # layout, which differs between float32 and float64, and the sign
        # of each -0.0 value's result follows it. Only this case still
        # takes the whole-cube float64 copy.
        lo = cube.values.astype(np.float64).min(axis=(0, 1))
    constant = np.flatnonzero(span <= 0.0)
    span[constant] = 1.0
    out = np.empty_like(cube.values)
    out_flat = _matrix(out)
    buf = np.empty((blocks[0].stop, cube.bands))
    for rows in blocks:
        block = buf[:rows.stop - rows.start]
        np.subtract(flat[rows], lo, out=block)
        block /= span
        block[:, constant] = 0.0
        out_flat[rows] = block
    return SpectralCube(values=out)


def _both_zeros(flat: np.ndarray) -> bool:
    """Whether the pixel matrix holds both +0.0 and -0.0."""
    zeros = negative = 0
    for rows in _row_blocks(*flat.shape):
        block = flat[rows]
        signs = np.signbit(block[block == 0.0])
        zeros += signs.size
        negative += np.count_nonzero(signs)
    return 0 < negative < zeros


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

    values = np.empty((size, size, bands), dtype=np.float32)
    flat, classes_of = _matrix(values), labels.reshape(-1) - 1
    for rows in _row_blocks(size * size, bands):
        # one draw per block continues the stream of one whole-cube draw
        block = protos[classes_of[rows]]
        block += rng.normal(0.0, noise_sigma, size=block.shape)
        flat[rows] = block
    cube = SpectralCube(values=values)
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
