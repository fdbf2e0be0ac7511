import multiprocessing
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from proprank import (
    Box,
    DataError,
    Dataset,
    GrayImage,
    HogConfig,
    PgmDirectory,
    SynthConfig,
    featurize_dataset,
    generate_geometric_dataset,
    hog,
    read_pgm,
)
from conftest import make_record
from proprank import core, features
from proprank.features import _CHUNK_BOXES, _describe_boxes, _hog_stack, _resample, _unsigned, _vote_tables

# Small geometry for fast tests: 8x8 patch, 4x4 cells -> 2x2 grid, one block.
TINY = HogConfig(resize_w=8, resize_h=8, cell_size=4)


def gray(arr):
    a = np.asarray(arr, dtype=np.float64)
    return GrayImage(a.shape[1], a.shape[0], a)


def test_gray_image_validation_and_clipping():
    img = GrayImage(2, 2, [[0.5, 2.0], [-1.0, 1.0]])
    assert_allclose(img.pixels, [[0.5, 1.0], [0.0, 1.0]])
    with pytest.raises(DataError):
        GrayImage(2, 2, np.zeros((3, 2)))
    with pytest.raises(DataError):
        GrayImage(2, 2, [[np.nan, 0], [0, 0]])


def test_hog_config_geometry_and_dimension():
    cfg = HogConfig()
    assert (cfg.cells_x, cfg.cells_y) == (6, 7)
    assert (cfg.blocks_x, cfg.blocks_y) == (5, 6)
    assert cfg.dimension == 1080
    assert TINY.dimension == 1 * 1 * 2 * 2 * 9
    assert HogConfig.from_dict(cfg.to_dict()) == cfg
    for not_an_object in ("x", "resize_w", 5, [1]):
        with pytest.raises(DataError, match="hog_config must be a JSON object"):
            HogConfig.from_dict(not_an_object)
    with pytest.raises(DataError):
        HogConfig(resize_w=8, resize_h=8, cell_size=8)  # 1x1 cells < 2x2 block
    with pytest.raises(DataError):
        HogConfig(clip_value=0.0)
    with pytest.raises(DataError):
        HogConfig(cell_size=0)


def test_hog_config_needs_a_patch_two_pixels_wide_and_high():
    # The [-1, 0, 1] gradient needs two pixels along each axis; a 1-pixel patch
    # used to pass the config and fail in HOG with an IndexError.
    for field in ("resize_w", "resize_h"):
        with pytest.raises(DataError, match=f"^HogConfig.{field} must be at least 2, got 1$"):
            HogConfig(**{field: 1}, cell_size=1, block_size=1)
    config = HogConfig(resize_w=2, resize_h=2, cell_size=1, block_size=1)
    img = gray(np.arange(12.0).reshape(3, 4) / 11.0)
    box = Box(0.5, 0.0, 4.0, 3.0)
    got = _describe_boxes(img, np.array([box.as_list()]), config)
    assert got.shape == (1, config.dimension)
    assert_allclose(got[0], oracles.describe_box(img, box, config), rtol=0, atol=1e-12)


def test_hog_config_field_types():
    for field, bad, kind in (
        ("cell_size", True, "an integer"), ("resize_w", 50.5, "an integer"), ("resize_h", "60", "an integer"),
        ("orientation_bins", 9.0, "an integer"), ("block_size", None, "an integer"),
        ("block_stride", False, "an integer"), ("clip_value", True, "a real number"),
        ("clip_value", "0.2", "a real number"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(f'HogConfig.{field} must be {kind}, got {bad!r}')}$"):
            HogConfig.from_dict({field: bad})
    assert HogConfig.from_dict({"clip_value": 1}).clip_value == 1
    assert HogConfig(resize_w=np.int64(50)).dimension == 1080


def test_crop_full_image_at_native_size_is_identity():
    rng = np.random.default_rng(0)
    pixels = rng.uniform(size=(8, 8))
    cfg = HogConfig(resize_w=8, resize_h=8, cell_size=4)
    out = _resample(gray(pixels), np.array([[0.0, 0.0, 8.0, 8.0]]), cfg)
    assert_allclose(out[0], pixels, atol=1e-15)


def test_crop_upsamples_checkerboard_bilinearly():
    img = gray([[0.0, 1.0], [1.0, 0.0]])
    cfg = HogConfig(resize_w=4, resize_h=4, cell_size=2, block_size=2)
    out = _resample(img, np.array([[0.0, 0.0, 2.0, 2.0]]), cfg)
    # Sample xs = ys = [0, 0.25, 0.75, 1] of v(x, y) = x + y - 2xy.
    expected = [
        [0.00, 0.25, 0.75, 1.00],
        [0.25, 0.375, 0.625, 0.75],
        [0.75, 0.625, 0.375, 0.25],
        [1.00, 0.75, 0.25, 0.00],
    ]
    assert_allclose(out[0], expected, atol=1e-15)


def test_crop_rejects_out_of_image_boxes():
    img, box = gray(np.zeros((4, 4))), [1.0, 1.0, 5.0, 3.0]
    message = re.escape("box [1.0, 1.0, 5.0, 3.0] lies outside the 4x4 image")
    for kernel in (_resample, _describe_boxes):
        with pytest.raises(DataError, match=message):
            kernel(img, np.array([box]), TINY)
    with pytest.raises(DataError, match=message):
        oracles.crop_and_resize(img, Box(*box), TINY)


def test_constant_patch_gives_zero_descriptor():
    desc = hog(gray(np.full((8, 8), 0.37)), TINY)
    assert desc.shape == (TINY.dimension,)
    assert np.all(desc == 0.0)


def test_descriptor_dimension_and_range():
    rng = np.random.default_rng(1)
    patch = gray(rng.uniform(size=(60, 50)))
    desc = hog(patch, HogConfig())
    assert desc.shape == (1080,)
    assert np.all(desc >= 0.0)
    assert np.all(desc <= 1.0)


def test_vertical_edge_votes_into_bin_zero():
    pixels = np.zeros((8, 8))
    pixels[:, 4:] = 1.0  # gradient along +x, orientation 0
    desc = hog(gray(pixels), TINY)
    by_bin = desc.reshape(-1, 9)
    assert desc.sum() > 0
    assert np.all(by_bin[:, 1:] == 0.0)
    # The mirrored edge has gradient along -x; unsigned orientation wraps to 0.
    desc_flip = hog(gray(pixels[:, ::-1].copy()), TINY)
    assert np.all(desc_flip.reshape(-1, 9)[:, 1:] == 0.0)
    assert desc_flip.sum() > 0


def test_horizontal_edge_splits_between_middle_bins():
    pixels = np.zeros((8, 8))
    pixels[4:, :] = 1.0  # gradient along +y, orientation 90 degrees
    desc = hog(gray(pixels), TINY)
    by_bin = desc.reshape(-1, 9)
    # 90 degrees sits exactly between the bin centers at 80 and 100 degrees.
    assert np.all(by_bin[:, [0, 1, 2, 3, 6, 7, 8]] == 0.0)
    assert_allclose(by_bin[:, 4], by_bin[:, 5], atol=1e-12)
    assert desc.sum() > 0


def test_diagonal_ramp_votes_between_adjacent_bins():
    x = np.arange(8.0)
    pixels = (x[None, :] + x[:, None]) / 20.0  # gradient at 45 degrees
    desc = hog(gray(pixels), TINY)
    by_bin = desc.reshape(-1, 9)
    # Interior pixels vote between the 40- and 60-degree bins; the one-sided
    # border gradients tilt to arctan(2) or arctan(1/2), reaching bins 1 and 4.
    assert np.all(by_bin[:, [0, 5, 6, 7, 8]] == 0.0)
    assert np.all(by_bin[:, 2] > 0.0)
    assert np.all(by_bin[:, 3] > 0.0)


def test_brightness_offset_invariance():
    rng = np.random.default_rng(2)
    base = rng.uniform(0.1, 0.6, size=(8, 8))
    d0 = hog(gray(base), TINY)
    d1 = hog(gray(base + 0.3), TINY)
    assert_allclose(d0, d1, atol=1e-10)


def test_contrast_scale_invariance_up_to_normalization():
    rng = np.random.default_rng(3)
    base = rng.uniform(0.0, 1.0, size=(8, 8))
    d0 = hog(gray(base), TINY)
    d1 = hog(gray(0.5 * base), TINY)
    assert_allclose(d0, d1, atol=1e-6)


def test_partial_border_cells_are_dropped():
    # 10x10 patch with 4x4 cells uses only the top-left 8x8 region.
    cfg = HogConfig(resize_w=10, resize_h=10, cell_size=4)
    pixels = np.zeros((10, 10))
    pixels[:, 9] = 1.0  # edge entirely inside the dropped border strip
    desc = hog(gray(pixels), cfg)
    assert np.all(desc == 0.0)


def test_hog_rejects_wrong_patch_size():
    with pytest.raises(DataError):
        hog(gray(np.zeros((4, 4))), TINY)


def test_describe_box_composes_crop_and_hog():
    rng = np.random.default_rng(4)
    img = gray(rng.uniform(size=(16, 16)))
    box = np.array([[2.0, 3.0, 14.0, 15.0]])
    d0 = _describe_boxes(img, box, TINY)[0]
    d1 = hog(gray(_resample(img, box, TINY)[0]), TINY)
    assert_allclose(d0, d1)


def test_featurize_dataset_attaches_and_reports_failures(tmp_path):
    rng = np.random.default_rng(5)
    imgs = {
        "a": gray(rng.uniform(size=(12, 12))),
        "b": gray(rng.uniform(size=(12, 12))),
    }
    rec_a = make_record("a", labels=[0.5, 0.2], cand_boxes=[[0, 0, 6, 6], [3, 3, 12, 12]], size=(12, 12))
    rec_b = make_record("b", labels=[0.9], cand_boxes=[[1, 1, 9, 9]], size=(12, 12))
    rec_c = make_record("c", labels=[0.1], cand_boxes=[[0, 0, 4, 4]], size=(12, 12))
    ds = Dataset((rec_a, rec_b, rec_c))
    out, failures = featurize_dataset(ds, imgs, TINY)
    assert failures == ["c: image not found"]
    assert out.records[0].features_matrix().shape == (2, TINY.dimension)
    assert out.records[2].candidates[0].features is None
    assert out.records[0].iou_labels() == [0.5, 0.2]
    # Same inputs, same bytes.
    again, _ = featurize_dataset(ds, imgs, TINY)
    assert_allclose(out.records[0].features_matrix(), again.records[0].features_matrix())

    # Featurizing again describes every record anew: one whose image is gone
    # loses the features it had instead of keeping them from an earlier run.
    refreshed, failures2 = featurize_dataset(out, {"b": imgs["b"]}, TINY)
    assert failures2 == ["a: image not found", "c: image not found"]
    assert refreshed.records[0].candidates.features is None
    assert refreshed.records[1].features_matrix().tobytes() == out.records[1].features_matrix().tobytes()

    # A dict never fails to read; a directory holding a truncated PGM does, and
    # that is a failure of its record only.
    (tmp_path / "a.pgm").write_bytes(b"P5\n12 12\n255\n" + bytes(range(144)))
    (tmp_path / "b.pgm").write_bytes(b"P5\n12 12\n255\n" + bytes(10))
    from_disk, failures3 = featurize_dataset(ds, PgmDirectory(tmp_path), TINY)
    assert failures3 == [f"b: {tmp_path / 'b.pgm'}: raster is truncated", "c: image not found"]
    assert from_disk.records[0].features_matrix().shape == (2, TINY.dimension)
    assert from_disk.records[1].candidates.features is None


def test_pgm_round_trip(tmp_path):
    path = tmp_path / "img.pgm"
    raster = bytes(range(12))
    path.write_bytes(b"P5\n# a comment\n4 3\n255\n" + raster)
    img = read_pgm(path)
    assert (img.width, img.height) == (4, 3)
    assert_allclose(img.pixels[0, :3], [0.0, 1 / 255, 2 / 255])
    assert_allclose(img.pixels[2, 3], 11 / 255)

    lowmax = tmp_path / "low.pgm"
    lowmax.write_bytes(b"P5 2 1 16\n" + bytes([8, 16]))
    img2 = read_pgm(lowmax)
    assert_allclose(img2.pixels, [[0.5, 1.0]])


def test_pgm_rejects_bad_files(tmp_path):
    ascii_pgm = tmp_path / "ascii.pgm"
    ascii_pgm.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(DataError, match="P5"):
        read_pgm(ascii_pgm)
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError, match="8-bit"):
        read_pgm(wide)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DataError, match="truncated"):
        read_pgm(short)
    for header in (b"P5\n-5 4\n255\n", b"P5\n0 4\n255\n", b"P5\n4 -5\n255\n" + bytes(64)):
        short.write_bytes(header)
        with pytest.raises(DataError, match="short.pgm: image size must be positive"):
            read_pgm(short)
    # Width digits glued to the magic are not a 12x2 image.
    glued = tmp_path / "glued.pgm"
    glued.write_bytes(b"P512 2\n255\n" + bytes(24))
    with pytest.raises(DataError, match="glued.pgm: not a binary PGM"):
        read_pgm(glued)
    header = tmp_path / "header.pgm"
    header.write_bytes(b"P5\n4 4\n")
    with pytest.raises(DataError, match="header.pgm: truncated PGM header"):
        read_pgm(header)
    header.write_bytes(b"P5\n4 x4\n255\n" + bytes(16))
    with pytest.raises(DataError, match=re.escape("header.pgm: invalid PGM header token b'x4'")):
        read_pgm(header)
    # int() alone would read these tokens as 12 and 2, a 12x2 image.
    for size, token in ((b"1_2 +2", b"1_2"), (b"12 +2", b"+2")):
        header.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(24))
        with pytest.raises(DataError, match=re.escape(f"header.pgm: invalid PGM header token {token!r}")):
            read_pgm(header)
    # A sample above maxval used to be clipped to white without a word.
    bright = tmp_path / "bright.pgm"
    bright.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 200, 255]))
    with pytest.raises(DataError, match="^" + re.escape(f"{bright}: sample 255 exceeds maxval 100") + "$"):
        read_pgm(bright)
    bright.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 100]))
    assert read_pgm(bright).pixels.tolist() == [[0.0, 0.5], [1.0, 1.0]]


def test_pgm_directory_lookup(tmp_path):
    (tmp_path / "here.pgm").write_bytes(b"P5\n1 1\n255\n\x7f")
    source = PgmDirectory(tmp_path)
    assert source.get("missing") is None
    img = source.get("here")
    assert img is not None and img.pixels.shape == (1, 1)


# ---------------------------------------------------------------------------
# The batched kernel against the per-box oracle (tests/oracles.py)

GEOMETRIES = {
    "default": HogConfig(),
    "tiny": TINY,
    "block-stride-2": HogConfig(block_stride=2),
    "partial-cells": HogConfig(resize_w=10, resize_h=12, cell_size=4),  # 2 px of width dropped, none of height
    "six-bins": HogConfig(orientation_bins=6),
    "no-clip": HogConfig(clip_value=1.0),
}


def scene(width=23, height=17):
    """Noise with saturated and black blocks, where resampled values sit at
    exactly 1 or 0 and gradients vanish, and a flat-topped ramp that falls to
    the right, whose gradient points at exactly 180 degrees."""
    rng = np.random.default_rng(11)
    pixels = rng.uniform(size=(height, width))
    pixels[2:8, 3:10] = 1.0
    pixels[10:, 12:20] = 0.0
    pixels[:6, 14:] = np.linspace(1.0, 0.2, width - 14)
    return gray(pixels)


def scene_boxes(width=23, height=17, count=20):
    """Whole-image, border-touching, 1-2 px and sub-pixel boxes, then random ones."""
    boxes = [
        [0, 0, width, height],
        [0, 3, 5, 9],
        [4, 0, 9, 6],
        [width - 6, 2, width, 8],
        [3, height - 5, 11, height],
        [width - 1, height - 1, width, height],
        [5, 5, 7, 7],
        [10.5, 8.25, 12.0, 9.0],
        [6.3, 4.1, 6.31, 4.12],
        [0.0, 0.0, 0.5, 0.25],
    ]
    rng = np.random.default_rng(12)
    while len(boxes) < count:
        x0, x1 = np.sort(rng.uniform(0, width, size=2))
        y0, y1 = np.sort(rng.uniform(0, height, size=2))
        if x1 > x0 and y1 > y0:
            boxes.append([x0, y0, x1, y1])
    return [Box(*b) for b in boxes]


def oracle_features(img, boxes, config):
    return np.array([oracles.describe_box(img, b, config) for b in boxes]).reshape(len(boxes), config.dimension)


def test_unsigned_orientation_is_np_mod_exactly():
    tiny = np.nextafter(0.0, 1.0)
    edges = [-np.pi, np.nextafter(-np.pi, 0.0), -1e-300, -tiny, -0.0, 0.0, tiny,
             np.nextafter(np.pi, 0.0), np.pi, -np.pi / 2, np.pi / 2]
    theta = np.concatenate([edges, np.random.default_rng(13).uniform(-np.pi, np.pi, size=10000)])
    got = _unsigned(theta.copy(), np.empty_like(theta))
    assert np.array_equal(got, np.mod(theta, np.pi)) and not np.any(np.signbit(got))


def test_orientation_just_below_zero_wraps_to_bin_zero():
    # Column 3 has gx = 1 and rows falling by one ulp, so gy is about -5.6e-17
    # and the unsigned orientation rounds up to exactly 180 degrees: bin
    # coordinate 9, which must wrap to bin 0 of the same cell.
    pixels = np.zeros((8, 8))
    pixels[:, 3] = 0.25 - np.arange(8) * 2.0**-55
    pixels[:, 4:] = 1.0
    patch = gray(pixels)
    assert_allclose(hog(patch, TINY), oracles.hog(patch, TINY), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("count", [0, 1, _CHUNK_BOXES, _CHUNK_BOXES + 1])
def test_batched_kernel_matches_per_box_oracle(name, count):
    config, img = GEOMETRIES[name], scene()
    boxes = scene_boxes()[:count]
    got = _describe_boxes(img, np.array([b.as_list() for b in boxes]).reshape(-1, 4), config)
    assert got.shape == (count, config.dimension)
    assert_allclose(got, oracle_features(img, boxes, config), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_single_box_views_match_the_oracle(name):
    config, img = GEOMETRIES[name], scene()
    for box in scene_boxes():
        row = np.array([box.as_list()])
        patch = gray(_resample(img, row, config)[0])
        assert_allclose(patch.pixels, oracles.crop_and_resize(img, box, config).pixels, rtol=0, atol=1e-12)
        assert_allclose(hog(patch, config), oracles.hog(patch, config), rtol=0, atol=1e-12)
        got = _describe_boxes(img, row, config)[0]
        assert_allclose(got, oracles.describe_box(img, box, config), rtol=0, atol=1e-12)


@pytest.mark.parametrize("count", [0, 1, _CHUNK_BOXES, _CHUNK_BOXES + 1, 2 * _CHUNK_BOXES + 1])
def test_featurize_dataset_chunks_match_the_oracle(count):
    img = scene()
    boxes = scene_boxes(count=max(count, 10))[:count]
    rec = make_record("s", labels=[0.5] * count, cand_boxes=[b.as_list() for b in boxes], size=(23, 17))
    out, failures = featurize_dataset(Dataset((rec,)), {"s": img}, HogConfig())
    assert failures == []
    assert out.records[0].num_candidates == count
    got = np.array([c.features for c in out.records[0].candidates]).reshape(count, HogConfig().dimension)
    assert_allclose(got, oracle_features(img, boxes, HogConfig()), rtol=0, atol=1e-12)


def benchmark_scene(seed=3):
    """A 320x240 noise scene with bright groundtruth rectangles, and its
    record of 100 generated boxes."""
    rec = generate_geometric_dataset(
        SynthConfig(seed=seed, num_images=1, candidates_per_image=100, mode="geometric", image_size=(320, 240))
    ).records[0]
    rng = np.random.default_rng(14)
    pixels = rng.uniform(0.0, 0.4, size=(240, 320))
    for obj in rec.groundtruth:
        x0, y0, x1, y1 = (int(v) for v in obj.box.as_list())
        pixels[y0:y1 + 1, x0:x1 + 1] = rng.uniform(0.7, 1.0, size=(y1 + 1 - y0, x1 + 1 - x0))
    return rec, gray(pixels)


def test_featurize_dataset_matches_the_oracle_at_benchmark_scale():
    # Described with the default geometry.
    rec, img = benchmark_scene()
    out, failures = featurize_dataset(Dataset((rec,)), {rec.image_id: img}, HogConfig())
    assert failures == []
    boxes = [Box(*b) for b in rec.candidates.boxes.tolist()]
    assert_allclose(out.records[0].features_matrix(), oracle_features(img, boxes, HogConfig()), rtol=0, atol=1e-12)


def thin_rasters():
    """1x1, 1xN and Nx1 images (and 2-pixel ones, whose diagonal neighbour
    lies past the raster) with whole-image, inner and sub-pixel boxes."""
    rng = np.random.default_rng(16)
    for width, height in [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1), (2, 2)]:
        boxes = [[0, 0, width, height], [0.25 * width, 0.5 * height, 0.75 * width, height],
                 [width - 0.1, height - 0.3, width, height], [0.0, 0.0, 0.01, 0.02]]
        yield gray(rng.uniform(size=(height, width))), np.array(boxes, dtype=np.float64)


def edge_scenes():
    """Benchmark-like scenes with their generated boxes, then the small scene
    with boxes flush with its right and bottom edges and boxes under a pixel."""
    for seed in (3, 4):
        rec, img = benchmark_scene(seed)
        yield img, rec.candidates.boxes
    w, h = 23, 17
    flush = [[w - 5, h - 7, w, h], [0, h - 1, w, h], [w - 1, 0, w, h], [w - 0.3, h - 0.2, w, h],
             [3.5, h - 2.75, 11.0, h], [w - 7.25, 4.5, w, 9.0], [6.3, 4.1, 6.31, 4.12], [0.0, 0.0, 0.5, 0.25]]
    yield scene(w, h), np.array(flush + [b.as_list() for b in scene_boxes(w, h)], dtype=np.float64)
    yield from thin_rasters()


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_resampled_patches_and_descriptors_are_bitwise_the_four_index_kernel(name):
    # The corners are read through one index on shifted views of the raster;
    # the reference adds a clamped index per corner.
    config = GEOMETRIES[name]
    for img, boxes in edge_scenes():
        got, want = _resample(img, boxes, config), oracles.resample_stack(img, boxes, config)
        assert got.tobytes() == want.tobytes()
        chunks = [_hog_stack(want[i:i + _CHUNK_BOXES], config) for i in range(0, len(want), _CHUNK_BOXES)]
        assert _describe_boxes(img, boxes, config).tobytes() == np.concatenate(chunks).tobytes()


def test_thin_rasters_give_finite_descriptors():
    for img, boxes in thin_rasters():
        for box in boxes:
            got = _describe_boxes(img, box[None], HogConfig())[0]
            assert got.shape == (HogConfig().dimension,) and np.all(np.isfinite(got))


def test_gradients_whose_squares_underflow_match_the_oracle():
    # Gradients of about 1e-200 square to 0, so the kernel's magnitude is 0
    # where the oracle's np.hypot keeps it; both descriptors are all but zero.
    patch = gray(np.random.default_rng(15).uniform(size=(60, 50)) * 1e-200)
    got = hog(patch, HogConfig())
    assert np.all(np.isfinite(got))
    assert_allclose(got, oracles.hog(patch, HogConfig()), rtol=0, atol=1e-12)


def test_a_descriptor_does_not_depend_on_what_was_described_before():
    # A chunk's vote tables are cached per config; larger stacks and another
    # config described in between must not change a stack's bytes.
    img, configs = scene(), (HogConfig(), GEOMETRIES["six-bins"])
    boxes = np.array([b.as_list() for b in scene_boxes(count=2 * _CHUNK_BOXES + 1)])
    for count in (5, _CHUNK_BOXES):
        for config in configs:
            _vote_tables.cache_clear()
            first = _describe_boxes(img, boxes[:count], config).tobytes()
            for other in (1, _CHUNK_BOXES + 1, 2 * _CHUNK_BOXES + 1):
                _describe_boxes(img, boxes[:other], config)
            for other_config in configs:
                _describe_boxes(img, boxes[:count], other_config)
            assert _describe_boxes(img, boxes[:count], config).tobytes() == first


def test_featurize_dataset_reports_a_record_with_a_bad_box_whole():
    img = scene()
    good = [b.as_list() for b in scene_boxes()]
    bad = [20.0, 10.0, 30.0, 16.0]
    # The bad box sits in the second chunk, after a first chunk of good boxes.
    with pytest.raises(DataError, match=r"^box \[20.0, 10.0, 30.0, 16.0\] lies outside the 23x17 image$"):
        _describe_boxes(img, np.array(good + [bad]), HogConfig())
    # The records claim a larger image than the 23x17 one the source returns,
    # so each is a failure before any box is read, even one without boxes.
    records = (
        make_record("empty", labels=[], cand_boxes=[], size=(40, 20)),
        make_record("outside", labels=[0.1], cand_boxes=[bad], size=(40, 20)),
        make_record("mixed", labels=[0.1] * (len(good) + 1), cand_boxes=good + [bad], size=(40, 20)),
    )
    out, failures = featurize_dataset(Dataset(records), {r.image_id: img for r in records}, HogConfig())
    assert failures == [f"{r.image_id}: image is 23x17, the record says 40x20" for r in records]
    assert out.records[0].num_candidates == 0
    assert all(r.candidates.features is None for r in out.records)
    assert [r.iou_labels() for r in out.records] == [r.iou_labels() for r in records]


# One lane, two, an odd three, and more lanes than any test image has chunks.
LANE_COUNTS = [1, 2, 3, 64]


@pytest.mark.parametrize("count", [0, 1, _CHUNK_BOXES, _CHUNK_BOXES + 1, 2 * _CHUNK_BOXES + 1])
def test_descriptors_do_not_depend_on_the_lane_count(monkeypatch, count):
    img, config = scene(), HogConfig()
    boxes = np.array([b.as_list() for b in scene_boxes(count=max(count, 10))[:count]]).reshape(-1, 4)
    serial = b"".join(_hog_stack(_resample(img, boxes[i:i + _CHUNK_BOXES], config), config).tobytes()
                      for i in range(0, count, _CHUNK_BOXES))
    describe_lane = features._describe_lane

    def recorded_lane(*args):
        ran.append(list(args[-1]))
        describe_lane(*args)

    monkeypatch.setattr(features, "_describe_lane", recorded_lane)
    for lanes in LANE_COUNTS:
        ran = []
        monkeypatch.setattr(features, "_usable_cpus", lambda: lanes)
        assert _describe_boxes(img, boxes, config).tobytes() == serial
        # Every chunk ran once, in as many lanes as there are CPUs or chunks.
        chunks = list(range(0, count, _CHUNK_BOXES))
        assert len(ran) == max(1, min(lanes, len(chunks)))
        assert sorted(start for lane in ran for start in lane) == chunks


def test_concurrent_callers_share_the_lanes_without_mixing_rows(monkeypatch):
    # More threads than CPUs, switching as often as the interpreter allows:
    # each caller's rows must still be the serial bytes of its own boxes.
    monkeypatch.setattr(features, "_usable_cpus", lambda: 3)
    img, config = scene(), HogConfig()
    boxes = np.array([b.as_list() for b in scene_boxes(count=64)])
    orders = [np.random.default_rng(seed).permutation(64)[:count] for seed, count in enumerate((20, 33, 47, 64))]
    stacks = [boxes[order] for order in orders]
    want = [_describe_boxes(img, boxes, config).tobytes() for boxes in stacks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(stacks)) as callers:
            runs = [callers.submit(_describe_boxes, img, boxes, config) for boxes in stacks * 3]
            got = [run.result(timeout=60).tobytes() for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_the_first_outside_box_is_reported_whichever_lane_meets_it(monkeypatch, lanes):
    monkeypatch.setattr(features, "_usable_cpus", lambda: lanes)
    boxes = [b.as_list() for b in scene_boxes(count=3 * _CHUNK_BOXES)]
    boxes[_CHUNK_BOXES + 3] = [20.0, 10.0, 30.0, 16.0]  # in the second chunk
    boxes[2 * _CHUNK_BOXES + 1] = [0.0, 0.0, 5.0, 18.0]  # in the third
    with pytest.raises(DataError, match=r"^box \[20.0, 10.0, 30.0, 16.0\] lies outside the 23x17 image$"):
        _describe_boxes(scene(), np.array(boxes), HogConfig())


def _describe_in_child(img, boxes, want):
    sys.exit(0 if _describe_boxes(img, boxes, HogConfig()).tobytes() == want else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_a_forked_child_describes_after_the_parent_used_the_pool(monkeypatch):
    # The child inherits the pool object but none of its threads; a lane
    # handed to that pool would never run.
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    img = scene()
    boxes = np.array([b.as_list() for b in scene_boxes(count=2 * _CHUNK_BOXES + 1)])
    want = _describe_boxes(img, boxes, HogConfig()).tobytes()
    assert core._lane_pool.cache_info().currsize == 1
    child = multiprocessing.get_context("fork").Process(target=_describe_in_child, args=(img, boxes, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
