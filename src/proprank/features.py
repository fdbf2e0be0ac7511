"""Oriented-gradient descriptors for box crops.

The pipeline is: crop the candidate box out of a grayscale image, resample it
to a fixed patch with bilinear interpolation, then describe the patch with
magnitude-weighted orientation histograms. Gradients use centered differences
[-1, 0, 1] with replicated borders, orientations are unsigned (0 to 180
degrees) and votes are split linearly between the two nearest bin centers,
which sit at i * (180 / bins) degrees. Cell histograms come from floor
division of the patch (partial cells at the right/bottom edges are dropped),
and overlapping blocks of cells are contrast-normalized with L2-hys
(L2-normalize, clip, re-normalize). The descriptor is the row-major
concatenation of all block vectors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import Box, Candidate, DataError, Dataset, ImageRecord

_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale raster with row-major intensities clipped to [0, 1]."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise DataError("image size must be positive")
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.shape != (self.height, self.width):
            raise DataError(f"pixel array shape {px.shape} does not match height x width "
                            f"({self.height}, {self.width})")
        if not np.all(np.isfinite(px)):
            raise DataError("pixel array contains non-finite values")
        object.__setattr__(self, "pixels", np.clip(px, 0.0, 1.0))


@dataclass(frozen=True)
class HogConfig:
    """Descriptor geometry. Default patch is 50 wide by 60 high with 8x8 cells,
    giving a 6x7 cell grid, 5x6 overlapping 2x2 blocks, and 1080 dimensions."""

    resize_w: int = 50
    resize_h: int = 60
    cell_size: int = 8
    orientation_bins: int = 9
    block_size: int = 2
    block_stride: int = 1
    clip_value: float = 0.2

    def __post_init__(self) -> None:
        for name in ("resize_w", "resize_h", "cell_size", "orientation_bins", "block_size", "block_stride"):
            if getattr(self, name) <= 0:
                raise DataError(f"HogConfig.{name} must be positive")
        if not 0.0 < self.clip_value <= 1.0:
            raise DataError("HogConfig.clip_value must lie in (0, 1]")
        if self.cells_x < self.block_size or self.cells_y < self.block_size:
            raise DataError(
                f"cell grid {self.cells_x}x{self.cells_y} is smaller than the "
                f"{self.block_size}x{self.block_size} block"
            )

    @property
    def cells_x(self) -> int:
        return self.resize_w // self.cell_size

    @property
    def cells_y(self) -> int:
        return self.resize_h // self.cell_size

    @property
    def blocks_x(self) -> int:
        return (self.cells_x - self.block_size) // self.block_stride + 1

    @property
    def blocks_y(self) -> int:
        return (self.cells_y - self.block_size) // self.block_stride + 1

    @property
    def dimension(self) -> int:
        return self.blocks_x * self.blocks_y * self.block_size * self.block_size * self.orientation_bins

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "HogConfig":
        if not isinstance(obj, dict):
            raise DataError(f"hog_config must be a JSON object, got {obj!r}")
        return cls(**{f: obj[f] for f in cls.__dataclass_fields__ if f in obj})


def crop_and_resize(image: GrayImage, box: Box, config: HogConfig) -> GrayImage:
    """Bilinearly resample the box region of the image to the configured patch.

    Sample points sit at output pixel centers mapped into the source region,
    so a box covering the whole image at the target size reproduces it
    exactly. Samples are clamped to the image, replicating border pixels.
    """
    if box.x_min < 0 or box.y_min < 0 or box.x_max > image.width or box.y_max > image.height:
        raise DataError(f"box {box.as_list()} lies outside the {image.width}x{image.height} image")
    out_w, out_h = config.resize_w, config.resize_h
    xs = box.x_min + (np.arange(out_w) + 0.5) * ((box.x_max - box.x_min) / out_w) - 0.5
    ys = box.y_min + (np.arange(out_h) + 0.5) * ((box.y_max - box.y_min) / out_h) - 0.5
    xs = np.clip(xs, 0.0, image.width - 1.0)
    ys = np.clip(ys, 0.0, image.height - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, image.width - 1)
    y1 = np.minimum(y0 + 1, image.height - 1)
    fx = xs - x0
    fy = ys - y0
    px = image.pixels
    top = px[y0[:, None], x0[None, :]] * (1.0 - fx) + px[y0[:, None], x1[None, :]] * fx
    bottom = px[y1[:, None], x0[None, :]] * (1.0 - fx) + px[y1[:, None], x1[None, :]] * fx
    patch = top * (1.0 - fy)[:, None] + bottom * fy[:, None]
    return GrayImage(out_w, out_h, patch)


def _gradients(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.empty_like(pixels)
    gx[:, 1:-1] = pixels[:, 2:] - pixels[:, :-2]
    gx[:, 0] = pixels[:, 1] - pixels[:, 0]
    gx[:, -1] = pixels[:, -1] - pixels[:, -2]
    gy = np.empty_like(pixels)
    gy[1:-1, :] = pixels[2:, :] - pixels[:-2, :]
    gy[0, :] = pixels[1, :] - pixels[0, :]
    gy[-1, :] = pixels[-1, :] - pixels[-2, :]
    return gx, gy


def hog(patch: GrayImage, config: HogConfig) -> np.ndarray:
    """Descriptor of a patch that already has the configured size."""
    if (patch.width, patch.height) != (config.resize_w, config.resize_h):
        raise DataError(
            f"patch is {patch.width}x{patch.height}, expected "
            f"{config.resize_w}x{config.resize_h}"
        )
    gx, gy = _gradients(patch.pixels)
    magnitude = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    bins = config.orientation_bins
    coord = theta * (bins / np.pi)
    lo = np.floor(coord)
    frac = coord - lo
    lo_bin = lo.astype(np.int64) % bins
    hi_bin = (lo_bin + 1) % bins

    # Partial cells at the right and bottom borders are dropped.
    used_h = config.cells_y * config.cell_size
    used_w = config.cells_x * config.cell_size
    rows, cols = np.mgrid[0:used_h, 0:used_w]
    cell = (rows // config.cell_size) * config.cells_x + (cols // config.cell_size)
    cell = cell.ravel()
    region = np.s_[:used_h, :used_w]
    mag = magnitude[region].ravel()
    f = frac[region].ravel()
    lo_flat = lo_bin[region].ravel()
    hi_flat = hi_bin[region].ravel()

    hist = np.zeros((config.cells_y * config.cells_x, bins), dtype=np.float64)
    np.add.at(hist, (cell, lo_flat), mag * (1.0 - f))
    np.add.at(hist, (cell, hi_flat), mag * f)
    hist = hist.reshape(config.cells_y, config.cells_x, bins)

    out = []
    for by in range(config.blocks_y):
        y = by * config.block_stride
        for bx in range(config.blocks_x):
            x = bx * config.block_stride
            v = hist[y:y + config.block_size, x:x + config.block_size].ravel()
            v = v / (np.sqrt(np.sum(v * v)) + _EPS)
            v = np.minimum(v, config.clip_value)
            v = v / (np.sqrt(np.sum(v * v)) + _EPS)
            out.append(v)
    return np.concatenate(out)


def describe_box(image: GrayImage, box: Box, config: HogConfig) -> np.ndarray:
    return hog(crop_and_resize(image, box, config), config)


def featurize_dataset(
    dataset: Dataset,
    images,
    config: HogConfig,
    keep_existing: bool = False,
) -> tuple[Dataset, list[str]]:
    """Attach a descriptor to every candidate of every record.

    images is anything with a get(image_id) -> GrayImage | None method (a
    plain dict works, as does PgmDirectory). A record whose image is missing
    or unreadable is kept unchanged and reported in the returned failure
    list; processing continues with the remaining records. With
    keep_existing, records that are already fully featurized pass through
    untouched.
    """
    failures: list[str] = []
    out_records: list[ImageRecord] = []
    for rec in dataset.records:
        if keep_existing and rec.candidates and all(c.features is not None for c in rec.candidates):
            out_records.append(rec)
            continue
        try:
            image = images.get(rec.image_id)
            if image is None:
                raise DataError("image not found")
            cands = tuple(
                Candidate(c.box, c.iou_label, describe_box(image, c.box, config), c.source_index)
                for c in rec.candidates
            )
        except (DataError, OSError) as exc:
            failures.append(f"{rec.image_id}: {exc}")
            out_records.append(rec)
            continue
        out_records.append(ImageRecord(rec.image_id, rec.width, rec.height, rec.groundtruth, cands))
    return Dataset(tuple(out_records)), failures


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) image source


def _parse_pgm_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    pos = start
    while len(tokens) < count:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        if end == pos:
            raise DataError("truncated PGM header")
        try:
            tokens.append(int(data[pos:end]))
        except ValueError as exc:
            raise DataError(f"invalid PGM header token {data[pos:end]!r}") from exc
        pos = end
    return tokens, pos


def read_pgm(path: str | Path) -> GrayImage:
    """Read a binary (P5) 8-bit PGM file into a GrayImage."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise DataError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), pos = _parse_pgm_tokens(data, 3, 2)
    if maxval <= 0 or maxval > 255:
        raise DataError(f"{path}: only 8-bit PGM is supported, maxval={maxval}")
    pos += 1  # single whitespace byte separates header and raster
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: image size must be positive, got {width}x{height}")
    raster = data[pos:pos + width * height]
    if len(raster) < width * height:
        raise DataError(f"{path}: raster is truncated")
    values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    return GrayImage(width, height, values.reshape(height, width))


class PgmDirectory:
    """Image source backed by a directory of <image_id>.pgm files."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def get(self, image_id: str) -> GrayImage | None:
        path = self.directory / f"{image_id}.pgm"
        if not path.is_file():
            return None
        return read_pgm(path)
