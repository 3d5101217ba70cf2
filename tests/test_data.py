import contextlib
import io
import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mgk.data
from mgk.data import (LabelGrid, SpectralCube, SplitSpec, extract_patches,
                      load_cube, load_labels, load_normalized_cube,
                      load_split, normalize_bands, save_cube, save_labels,
                      save_split, synth_scene)
from mgk.errors import ConfigError, ContractError, FormatError
from mgk.pipeline import load_dataset


def random_cube(rng, h=4, w=5, d=3):
    values = rng.random(size=(h, w, d)).astype(np.float32)
    return SpectralCube(values=values)


def ref_normalize_bands(cube):
    """normalize_bands as it was before it worked in place: live bands
    scaled into a zeroed buffer, kept as the reference for its bytes."""
    v = cube.values.astype(np.float64)
    lo = v.min(axis=(0, 1))
    hi = v.max(axis=(0, 1))
    span = hi - lo
    out = np.zeros_like(v)
    live = span > 0.0
    out[:, :, live] = (v[:, :, live] - lo[live]) / span[live]
    return out.astype(np.float32)


def ref_extract_patches(cube, pixel_ids, size):
    """The per-pixel patch loop that the one gather replaced, kept
    as the reference for its bytes."""
    pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
    out = np.empty((pixel_ids.size, size, size, cube.bands))
    half = size // 2
    for i, pid in enumerate(pixel_ids):
        row, col = int(pid) // cube.width, int(pid) % cube.width
        rr = np.clip(np.arange(row - half, row + half + 1), 0,
                     cube.height - 1)
        cc = np.clip(np.arange(col - half, col + half + 1), 0,
                     cube.width - 1)
        out[i] = cube.values[np.ix_(rr, cc)].astype(np.float64)
    return out


def ref_save_cube(path, cube):
    """save_cube as it was before it wrote one band at a time: the whole
    transposed payload in one buffer, kept as the reference for its bytes."""
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
        fh.write(b"HSC1")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def ref_load_cube(path):
    """load_cube as it was before it read in row blocks: the whole file,
    then one transposed copy; kept as the reference for its bytes, its
    error messages and their offsets."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, start = mgk.data._read_header(data, b"HSC1", "cube")
    h, w, d = mgk.data._header_dims(header, ("height", "width", "bands"),
                                    "cube")
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


def ref_synth_scene(classes, size, bands, noise_sigma, seed,
                    train_per_class):
    """synth_scene's draws as they were before it filled its cube in row
    blocks: one whole-cube float64 noise draw, kept as the reference for
    the cube's bytes and the split that the generator draws after it."""
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
    train, test = {}, {}
    flat = labels.ravel()
    for c in range(1, classes + 1):
        members = np.nonzero(flat == c)[0]
        chosen = np.sort(rng.choice(members, size=train_per_class,
                                    replace=False))
        train[c] = chosen
        test[c] = np.setdiff1d(members, chosen)
    return values.astype(np.float32), labels, train, test


def same_bits(a, b):
    """Equal shape, dtype and bytes; +0.0 and -0.0 differ, as do NaNs."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    uint = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(uint), b.view(uint))


@st.composite
def cubes(draw, max_side=9):
    """Small cubes of either sign and any scale, some bands constant."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = (rng.normal(size=(h, w, d)) * scale).astype(np.float32)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d,
                                      max_size=d)))
    values[:, :, constant] = draw(st.floats(-100, 100, width=32))
    return SpectralCube(values=values)


def test_cube_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cube = random_cube(rng)
    path = os.path.join(tmp_path, "cube.hsc")
    save_cube(path, cube)
    loaded = load_cube(path)
    assert np.array_equal(loaded.values, cube.values)
    path2 = os.path.join(tmp_path, "cube2.hsc")
    save_cube(path2, loaded)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_cube_band_sequential_layout(tmp_path):
    cube = SpectralCube(values=np.arange(8, dtype=np.float32)
                        .reshape(2, 2, 2))
    path = os.path.join(tmp_path, "cube.hsc")
    save_cube(path, cube)
    raw = open(path, "rb").read()
    header_end = raw.index(b"\n") + 1
    payload = np.frombuffer(raw[header_end:], dtype="<f4")
    # whole band 0 first, then band 1
    assert np.array_equal(payload[:4], cube.values[:, :, 0].ravel())
    assert np.array_equal(payload[4:], cube.values[:, :, 1].ravel())


def test_cube_bad_magic_offset_zero(tmp_path):
    path = os.path.join(tmp_path, "bad.hsc")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"{}" + b"\n")
    with pytest.raises(FormatError) as err:
        load_cube(path)
    assert err.value.offset == 0


def test_cube_truncated_payload(tmp_path):
    rng = np.random.default_rng(1)
    cube = SpectralCube(values=rng.random((2, 2, 2)).astype(np.float32))
    path = os.path.join(tmp_path, "cube.hsc")
    save_cube(path, cube)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-4])  # drop one float: 31 of 32 values... one short
    with pytest.raises(FormatError) as err:
        load_cube(path)
    assert "byte offset" in str(err.value)


def test_labels_round_trip(tmp_path):
    labels = np.array([[0, 1], [2, 3]], dtype=np.uint16)
    grid = LabelGrid(labels=labels)
    path = os.path.join(tmp_path, "labels.hsl")
    save_labels(path, grid)
    loaded = load_labels(path)
    assert np.array_equal(loaded.labels, labels)


def test_split_round_trip_and_counts(tmp_path):
    split = SplitSpec(train={1: [0, 2], 2: [5]}, test={1: [1], 2: [6, 7]})
    path = os.path.join(tmp_path, "split.json")
    save_split(path, split)
    loaded = load_split(path)
    assert loaded.counts() == {"train": {1: 2, 2: 1}, "test": {1: 1, 2: 2}}
    assert np.array_equal(loaded.train[1], [0, 2])


def test_split_overlap_names_the_pixel():
    with pytest.raises(ContractError, match="5"):
        SplitSpec(train={1: [0, 5]}, test={1: [5]})
    with pytest.raises(ContractError, match="3"):
        SplitSpec(train={1: [3], 2: [3]}, test={})


@pytest.mark.parametrize("train, test, message", [
    ({1: [0, 5]}, {1: [5]},
     "pixel index 5 appears in both train/1 and test/1"),
    ({1: [3], 2: [3]}, {},
     "pixel index 3 appears in both train/1 and train/2"),
    # the first repeat in listing order, named with its first owner
    ({1: [1, 2], 2: [4]}, {2: [7, 2, 1], 3: [4]},
     "pixel index 2 appears in both train/1 and test/2"),
    ({1: [10, 3, 3]}, {}, "pixel index 3 repeated inside train class 1"),
    ({1: [100, 200, 200]}, {}, "pixel index 200 repeated inside train "
                               "class 1"),
    ({1: [0]}, {2: [6, 9, 6]}, "pixel index 6 repeated inside test class 2"),
])
def test_split_repeat_names_the_pixel_and_its_owners(train, test, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        SplitSpec(train=train, test=test)


def test_split_disjointness_check_on_a_benchmark_sized_split():
    ids = np.random.default_rng(3).permutation(256 * 256)
    per_class = np.split(ids, 16)
    train = {c + 1: v[:300] for c, v in enumerate(per_class)}
    test = {c + 1: v[300:] for c, v in enumerate(per_class)}
    assert SplitSpec(train=train, test=test).counts()["test"][16] == 3796
    train[1] = np.append(train[1], ids[-1])
    with pytest.raises(ContractError, match=f"^pixel index {ids[-1]} "
                                            "appears in both train/1 and "
                                            "test/16$"):
        SplitSpec(train=train, test=test)


def test_split_validate_against_grid():
    labels = np.array([[1, 2], [0, 2]], dtype=np.uint16)
    grid = LabelGrid(labels=labels)
    good = SplitSpec(train={1: [0], 2: [1]}, test={2: [3]})
    good.validate_against(grid)
    wrong_class = SplitSpec(train={1: [1]}, test={})  # pixel 1 is class 2
    with pytest.raises(ContractError):
        wrong_class.validate_against(grid)
    unlabeled = SplitSpec(train={1: [2]}, test={})  # pixel 2 is class 0
    with pytest.raises(ContractError):
        unlabeled.validate_against(grid)


def test_normalize_bands_range_and_rules():
    values = np.zeros((1, 3, 2), dtype=np.float32)
    values[0, :, 0] = [10.0, 15.0, 20.0]
    values[0, :, 1] = 7.0  # constant band
    out = normalize_bands(SpectralCube(values=values))
    assert np.allclose(out.values[0, :, 0], [0.0, 0.5, 1.0])
    assert np.all(out.values[0, :, 1] == 0.0)


def test_normalize_bands_identity_on_unit_range():
    values = np.zeros((1, 2, 1), dtype=np.float32)
    values[0, :, 0] = [0.0, 1.0]
    out = normalize_bands(SpectralCube(values=values))
    assert np.array_equal(out.values, values)


@given(cubes())
def test_normalize_bands_matches_reference_bitwise(cube):
    assert same_bits(normalize_bands(cube).values, ref_normalize_bands(cube))


def test_normalize_bands_single_pixel_and_constant_cubes():
    for values in (np.array([[[-3.5, 0.0, 2.0]]], dtype=np.float32),
                   np.full((3, 2, 2), -7.25, dtype=np.float32)):
        cube = SpectralCube(values=values)
        out = normalize_bands(cube).values
        assert same_bits(out, ref_normalize_bands(cube))
        assert same_bits(out, np.zeros_like(values))


def test_normalize_bands_peak_memory_below_three_float64_cubes():
    rng = np.random.default_rng(9)
    cube = SpectralCube(values=rng.random((128, 128, 32), dtype=np.float32))
    tracemalloc.start()
    try:
        normalize_bands(cube)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * cube.values.size * 8


@given(st.integers(0, 2**32 - 1))
def test_normalize_bands_idempotent(seed):
    rng = np.random.default_rng(seed)
    cube = SpectralCube(
        values=(rng.random((3, 4, 2)) * 50 - 10).astype(np.float32))
    once = normalize_bands(cube)
    twice = normalize_bands(once)
    assert np.array_equal(once.values, twice.values)


def test_patch_centers_reassemble_cube():
    rng = np.random.default_rng(5)
    cube = random_cube(rng, h=3, w=4, d=2)
    ids = np.arange(12)
    patches = extract_patches(cube, ids, size=5)
    centers = patches[:, 2, 2, :].reshape(3, 4, 2)
    assert np.allclose(centers, cube.values.astype(np.float64))


@given(cubes(), st.sampled_from([1, 3, 5, 7]), st.data())
def test_patch_gather_matches_per_pixel_loop(cube, size, data):
    ids = data.draw(st.lists(st.integers(0, cube.height * cube.width - 1),
                             max_size=12))
    assert same_bits(extract_patches(cube, ids, size),
                     ref_extract_patches(cube, ids, size).astype(np.float32))


@pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (3, 2), (5, 8)])
@pytest.mark.parametrize("size", [1, 3, 5, 7])
def test_patch_gather_covers_corners_edges_and_small_images(h, w, size):
    rng = np.random.default_rng(h * 10 + w)
    cube = SpectralCube(values=(rng.normal(size=(h, w, 2)) * 5
                                ).astype(np.float32))
    every = np.arange(h * w)  # corners, edges and the interior
    assert same_bits(extract_patches(cube, every, size),
                     ref_extract_patches(cube, every, size).astype(np.float32))
    empty = extract_patches(cube, [], size)
    assert same_bits(empty,
                     ref_extract_patches(cube, [], size).astype(np.float32))
    assert empty.shape == (0, size, size, 2)


@pytest.mark.parametrize("size", [0, 2, 4, 6, -1])
def test_patch_size_must_be_odd_and_positive(size):
    cube = random_cube(np.random.default_rng(6))
    for ids in ([0, 3], []):
        with pytest.raises(ContractError, match=f"got {size}$"):
            extract_patches(cube, ids, size)


@pytest.mark.parametrize("bad", [-1, -20, 20, 10**9])
def test_pixel_id_off_the_image_is_named(bad):
    cube = random_cube(np.random.default_rng(7), h=4, w=5)
    for gather in (cube.pixels, lambda ids: extract_patches(cube, ids, 3)):
        with pytest.raises(ContractError,
                           match=f"pixel id {bad} outside image 4x5$"):
            gather([0, 19, bad, 3])


@given(cubes(), st.data())
def test_pixels_gathers_rows_of_the_whole_cube_matrix(cube, data):
    ids = data.draw(st.lists(st.integers(0, cube.height * cube.width - 1),
                             max_size=12))
    whole = cube.values.reshape(-1, cube.bands).astype(np.float64)
    assert same_bits(cube.pixels(ids),
                     whole[np.asarray(ids, dtype=np.int64)])


def test_synth_scene_shapes_and_split():
    cube, grid, split = synth_scene(classes=3, size=16, bands=8,
                                    noise_sigma=0.01, seed=0,
                                    train_per_class=10)
    assert (cube.height, cube.width, cube.bands) == (16, 16, 8)
    assert set(np.unique(grid.labels)) == {1, 2, 3}
    split.validate_against(grid)
    assert split.counts()["train"] == {1: 10, 2: 10, 3: 10}


def test_synth_scene_zero_noise_constant_within_class():
    cube, grid, _ = synth_scene(classes=2, size=8, bands=4,
                                noise_sigma=0.0, seed=1, train_per_class=5)
    for c in (1, 2):
        rows, cols = np.nonzero(grid.labels == c)
        spectra = cube.values[rows, cols, :]
        assert np.all(spectra == spectra[0])


def test_synth_scene_nearest_prototype_separable():
    cube, grid, _ = synth_scene(classes=3, size=16, bands=16,
                                noise_sigma=0.02, seed=2,
                                train_per_class=10)
    protos = []
    for c in (1, 2, 3):
        rows, cols = np.nonzero(grid.labels == c)
        protos.append(cube.values[rows, cols, :].mean(axis=0))
    protos = np.stack(protos)
    flat = cube.values.reshape(-1, 16)
    d2 = ((flat[:, None, :] - protos[None, :, :]) ** 2).sum(-1)
    pred = d2.argmin(axis=1) + 1
    assert np.mean(pred == grid.labels.ravel()) == 1.0


def test_synth_scene_deterministic(tmp_path):
    a = synth_scene(classes=3, size=8, bands=4, noise_sigma=0.05, seed=3,
                    train_per_class=5)
    b = synth_scene(classes=3, size=8, bands=4, noise_sigma=0.05, seed=3,
                    train_per_class=5)
    assert np.array_equal(a[0].values, b[0].values)
    pa = os.path.join(tmp_path, "a.hsc")
    pb = os.path.join(tmp_path, "b.hsc")
    save_cube(pa, a[0])
    save_cube(pb, b[0])
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_synth_scene_config_errors():
    with pytest.raises(ConfigError):
        synth_scene(classes=1, size=8, bands=4, noise_sigma=0.0, seed=0)
    with pytest.raises(ConfigError):
        synth_scene(classes=5, size=4, bands=4, noise_sigma=0.0, seed=0)
    with pytest.raises(ConfigError):
        synth_scene(classes=2, size=8, bands=4, noise_sigma=-0.1, seed=0)


def test_split_file_bad_json_is_format_error(tmp_path):
    path = os.path.join(tmp_path, "split.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(FormatError):
        load_split(path)
    with open(path, "w") as fh:
        json.dump({"train": {}}, fh)  # missing test section
    with pytest.raises(FormatError):
        load_split(path)


CUBE_HEADER = {"height": 2, "width": 2, "bands": 1, "dtype": "f32le",
               "order": "band-sequential"}


@pytest.mark.parametrize("value", ["abc", None, [8], 2.5, True, 0])
@pytest.mark.parametrize("load, magic, header, key", [
    (load_cube, b"HSC1", CUBE_HEADER, "height"),
    (load_cube, b"HSC1", CUBE_HEADER, "bands"),
    (load_labels, b"HSL1", {"height": 2, "width": 2}, "height"),
    (load_labels, b"HSL1", {"height": 2, "width": 2}, "width"),
])
def test_header_dim_that_is_not_an_integer_is_named(tmp_path, load, magic,
                                                    header, key, value):
    path = tmp_path / "file"
    path.write_bytes(magic + json.dumps({**header, key: value}).encode()
                     + b"\n" + bytes(16))
    with pytest.raises(FormatError, match=re.escape(
            f"header '{key}' must be a positive integer, got {value!r}")):
        load(path)


@pytest.mark.parametrize("header", [b"5", b"null", b"[]", b'"x"'])
@pytest.mark.parametrize("load, magic, what", [
    (load_cube, b"HSC1", "cube"), (load_labels, b"HSL1", "labels")])
def test_header_that_is_not_an_object_is_refused(tmp_path, load, magic,
                                                 what, header):
    path = tmp_path / "file"
    path.write_bytes(magic + header + b"\n")
    with pytest.raises(FormatError, match=f"{what} header must be a JSON "
                                          f"object"):
        load(path)


@pytest.mark.parametrize("doc, message", [
    ({"train": {"1": [0, 10 ** 20]}, "test": {}},
     "split train class 1: pixel id 100000000000000000000 is not an integer"),
    ({"train": {"1": [0, 26.5]}, "test": {}},
     "split train class 1: pixel id 26.5 is not an integer"),
    ({"train": {}, "test": {"2": [True]}},
     "split test class 2: pixel id True is not an integer"),
    ({"train": {"1": ["3"]}, "test": {}},
     "split train class 1: pixel id '3' is not an integer"),
    ({"train": [], "test": {}}, "split section 'train' must be an object"),
    ({"train": {"1": 5}, "test": {}},
     "split train class 1 must be a list of pixel ids"),
])
def test_split_id_that_is_not_an_integer_is_named(tmp_path, doc, message):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_split(path)
    assert str(err.value) == message


# --------------------------------------------- whole-cube stages in row blocks

KIB = 1 << 10
# Values per row block: one pixel per block, a few pixels, and the package's
# own size, at which the small cubes below fit in one block.
BLOCK_SIZES = [1, 7, 40, mgk.data._BLOCK_VALUES]


@contextlib.contextmanager
def block_size(values):
    """Whole-cube stages work in row blocks of ``values`` values."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.data, "_BLOCK_VALUES", values)
        yield


@st.composite
def io_cubes(draw, max_side=9):
    """Cubes of any side from 1, values of either sign, -0.0 included."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(h, w, d)).astype(np.float32)
    values[rng.random((h, w, d)) < 0.2] = -0.0
    return SpectralCube(values=values)


def assert_io_matches_reference(cube, tmp):
    new, ref = os.path.join(tmp, "new.hsc"), os.path.join(tmp, "ref.hsc")
    save_cube(new, cube)
    ref_save_cube(ref, cube)
    assert open(new, "rb").read() == open(ref, "rb").read()
    assert same_bits(load_cube(ref).values, ref_load_cube(ref).values)


@given(io_cubes(), st.sampled_from(BLOCK_SIZES))
def test_cube_io_matches_reference_bytes(cube, block):
    with tempfile.TemporaryDirectory() as tmp, block_size(block):
        assert_io_matches_reference(cube, tmp)


def test_cube_io_matches_reference_across_the_package_blocks(tmp_path):
    rng = np.random.default_rng(12)
    cube = SpectralCube(values=rng.normal(size=(83, 61, 100))
                        .astype(np.float32))
    assert cube.values.size > 3 * mgk.data._BLOCK_VALUES
    assert_io_matches_reference(cube, tmp_path)


GOOD_HEADER = json.dumps(CUBE_HEADER, sort_keys=True).encode()  # 16 bytes


def header_with(**changes):
    header = {**CUBE_HEADER, **changes}
    return json.dumps({k: v for k, v in header.items() if v is not None}
                      ).encode()


@pytest.mark.parametrize("raw", [
    b"",
    b"HS",
    b"NOPE" + GOOD_HEADER + b"\n" + bytes(16),
    b"HS\nC" + GOOD_HEADER + b"\n" + bytes(16),
    b"\nHSC1" + GOOD_HEADER + b"\n" + bytes(16),
    b"NOPE" + bytes(200_000),
    b"HSC1",
    b"HSC1" + GOOD_HEADER,
    b"HSC1" + b" " * 200_000,
    b"HSC1\n" + bytes(16),
    b"HSC1{height\n" + bytes(16),
    b"HSC1\xff\xfe\n" + bytes(16),
    b"HSC1[1, 2]\n" + bytes(16),
    b"HSC1" + header_with(height=None) + b"\n" + bytes(16),
    b"HSC1" + header_with(bands=0) + b"\n",
    b"HSC1" + header_with(width="2") + b"\n" + bytes(16),
    b"HSC1" + header_with(dtype=None) + b"\n" + bytes(16),
    b"HSC1" + header_with(order=None) + b"\n" + bytes(16),
    b"HSC1" + header_with(dtype="f64le") + b"\n" + bytes(32),
    b"HSC1" + header_with(order="band-interleaved") + b"\n" + bytes(16),
    b"HSC1" + GOOD_HEADER + b"\n",
    b"HSC1" + GOOD_HEADER + b"\n" + bytes(15),
    b"HSC1" + GOOD_HEADER + b"\n" + bytes(17),
], ids=["empty", "short magic", "bad magic", "newline in magic",
        "newline before magic", "bad magic and no newline", "magic only",
        "no header newline", "long header and no newline", "empty header",
        "not JSON", "not UTF-8", "not an object", "missing height",
        "zero bands", "width a string", "missing dtype", "missing order",
        "unsupported dtype", "unsupported order", "no payload",
        "payload 1 byte short", "payload 1 byte long"])
def test_cube_format_error_matches_reference(tmp_path, raw):
    path = tmp_path / "cube.hsc"
    path.write_bytes(raw)
    errors = []
    for load in (load_cube, ref_load_cube):
        with pytest.raises(FormatError) as err:
            load(path)
        errors.append((str(err.value), err.value.offset))
    assert errors[0] == errors[1]


def test_cube_header_longer_than_one_read_loads_as_reference(tmp_path):
    path = tmp_path / "cube.hsc"
    payload = np.arange(4, dtype="<f4").tobytes()
    path.write_bytes(b"HSC1" + header_with(note="x" * 200_000) + b"\n"
                     + payload)
    assert same_bits(load_cube(path).values, ref_load_cube(path).values)


def test_cube_file_that_shrinks_while_read_is_refused(tmp_path):
    path = tmp_path / "cube.hsc"
    save_cube(path, SpectralCube(values=np.ones((2, 2, 3), np.float32)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mgk.data.os, "fstat",
                   lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(FormatError, match="^cube file ended while it "
                                              "was read") as err:
            load_cube(path)
    assert err.value.offset == size - 6


@st.composite
def signed_zero_cubes(draw, max_side=9):
    """Cubes in which +0.0 and -0.0 mix: in bands of zeros alone, and
    beside values of one or both signs; one-band cubes included."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(h, w, d)).astype(np.float32)
    if draw(st.booleans()):
        values = np.abs(values)  # a zero is then each band's minimum
    zero = rng.random((h, w, d)) < draw(st.sampled_from([0.3, 0.8, 1.0]))
    values[zero] = 0.0
    values[zero & (rng.random((h, w, d)) < 0.5)] = -0.0
    return SpectralCube(values=values)


@given(signed_zero_cubes(), st.sampled_from(BLOCK_SIZES))
def test_normalize_bands_matches_reference_on_signed_zeros(cube, block):
    with block_size(block):
        out = normalize_bands(cube).values
    assert same_bits(out, ref_normalize_bands(cube))


@pytest.mark.parametrize("block", [40, mgk.data._BLOCK_VALUES])
def test_normalize_bands_one_band_of_signed_zeros_matches_reference(block):
    # numpy's float32 and float64 mins of one band can return different
    # zeros, and the sign of each -0.0 value's result follows the float64 one
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 3000))
        values = rng.random(n).astype(np.float32)
        values[rng.random(n) < 0.05] = 0.0
        values[(values == 0.0) & (rng.random(n) < 0.5)] = -0.0
        cube = SpectralCube(values=values.reshape(1, n, 1))
        with block_size(block):
            out = normalize_bands(cube).values
        assert same_bits(out, ref_normalize_bands(cube))


@pytest.mark.parametrize("noise_sigma", [0.0, 0.4])
@pytest.mark.parametrize("classes, size, bands, block", [
    (3, 16, 8, 1), (4, 20, 5, 40), (2, 9, 1, 7),
    (16, 80, 64, mgk.data._BLOCK_VALUES)])
def test_synth_scene_matches_reference_bytes(tmp_path, classes, size, bands,
                                             block, noise_sigma):
    seed = classes * size + bands
    with block_size(block):
        cube, grid, split = synth_scene(classes, size, bands, noise_sigma,
                                        seed, train_per_class=3)
    values, labels, train, test = ref_synth_scene(classes, size, bands,
                                                  noise_sigma, seed, 3)
    assert same_bits(cube.values, values)
    save_cube(tmp_path / "new.hsc", cube)
    ref_save_cube(tmp_path / "ref.hsc", SpectralCube(values=values))
    assert ((tmp_path / "new.hsc").read_bytes()
            == (tmp_path / "ref.hsc").read_bytes())
    assert same_bits(grid.labels, labels)
    for part, ref_part in ((split.train, train), (split.test, test)):
        assert list(part) == list(ref_part)
        assert all(same_bits(part[c], ref_part[c]) for c in part)


def traced_peak(fn, *args):
    """Bytes that fn(*args) held at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cube_stages_peak_memory_within_block_budget(tmp_path):
    # Budgets above the stage's cube(s), in blocks of B values: save_cube
    # holds one band; load_cube one float32 block, the finiteness check's
    # bool block and its header read; normalize_bands one float64 block and
    # the bool block; synth_scene two float64 blocks (prototypes and noise) and its
    # labels and split, at most 32 bytes per pixel.
    block, size, bands = mgk.data._BLOCK_VALUES, 64, 96
    cube, _, _ = synth_scene(4, size, bands, 0.1, seed=0, train_per_class=5)
    cube_bytes = cube.values.nbytes
    assert cube.values.size > 2 * block
    path = tmp_path / "cube.hsc"
    assert traced_peak(save_cube, path, cube) < 4 * size * size + 64 * KIB
    assert traced_peak(load_cube, path) < cube_bytes + 5 * block + 64 * KIB
    assert (traced_peak(normalize_bands, cube)
            < cube_bytes + 9 * block + 64 * KIB)
    assert (traced_peak(synth_scene, 4, size, bands, 0.1, 0, 5)
            < cube_bytes + 16 * block + 32 * size * size + 64 * KIB)


def assert_loader_matches_reference(cube, path):
    save_cube(path, cube)
    got = load_normalized_cube(path).values
    assert same_bits(got, normalize_bands(load_cube(path)).values)
    assert same_bits(got, ref_normalize_bands(cube))


def signed_zero_band(n):
    """n values of a constant band, +0.0 and -0.0 in turn."""
    zeros = np.zeros(n, dtype=np.float32)
    zeros[1::2] = -0.0
    return zeros


@pytest.mark.parametrize("block", [40, mgk.data._BLOCK_VALUES])
def test_loader_normalizes_as_normalize_bands_and_the_reference(tmp_path,
                                                                block):
    rng = np.random.default_rng(13)
    random = rng.normal(size=(23, 17, 6)).astype(np.float32)
    constant_zeros = random.copy()
    constant_zeros[:, :, 2] = signed_zero_band(23 * 17).reshape(23, 17)
    # one band whose minimum is a mix of +0.0 and -0.0
    one_band = np.abs(rng.normal(size=(1, 3000, 1))).astype(np.float32)
    one_band[0, ::7, 0] = signed_zero_band(one_band[0, ::7, 0].size)
    with block_size(block):
        for values in (random, constant_zeros, one_band):
            assert_loader_matches_reference(SpectralCube(values=values),
                                            tmp_path / "cube.hsc")


@given(signed_zero_cubes(), st.sampled_from(BLOCK_SIZES))
def test_loader_matches_normalize_bands_on_signed_zeros(cube, block):
    with tempfile.TemporaryDirectory() as tmp, block_size(block):
        assert_loader_matches_reference(cube, os.path.join(tmp, "cube.hsc"))


@given(st.one_of(cubes(), signed_zero_cubes()), st.sampled_from(BLOCK_SIZES))
def test_normalize_bands_leaves_its_input_unchanged(cube, block):
    before = cube.values.copy()
    with block_size(block):
        out = normalize_bands(cube)
    assert out.values is not cube.values
    assert same_bits(cube.values, before)


def test_load_dataset_holds_one_cube_and_a_normalizing_block(tmp_path):
    # load_cube's float32 and bool blocks (5·B) are freed before
    # normalization's float64 and bool blocks (9·B) are made; labels and
    # split take well under 64 bytes per pixel. A second cube does not fit.
    block, size, bands = mgk.data._BLOCK_VALUES, 64, 256
    cube, grid, split = synth_scene(4, size, bands, 0.1, seed=1,
                                    train_per_class=5)
    paths = [tmp_path / name for name in ("cube.hsc", "labels.hsl",
                                          "split.json")]
    for save, path, part in zip((save_cube, save_labels, save_split), paths,
                                (cube, grid, split)):
        save(path, part)
    cube_bytes = cube.values.nbytes
    assert cube_bytes > 8 * block
    del cube, grid, split
    assert (traced_peak(load_dataset, *paths)
            < cube_bytes + 9 * block + 64 * size * size + 64 * KIB)
