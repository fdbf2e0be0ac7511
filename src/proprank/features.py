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

One kernel describes a stack of boxes of one image at once, with the same
arithmetic in the same order for every box, in fixed-size chunks of boxes.
The chunks are independent, so they are spread over strided lanes, one per
CPU in the process's affinity mask (never more lanes than chunks): the
calling thread is lane 0 and core's shared thread pool runs the others, each
writing its own rows of the output. numpy's ufuncs and takes release the
GIL, so the lanes run side by side. The pool starts when a lane first
needs it, and again after the JSON codec has joined its idle threads to
fork. Every chunk does the same arithmetic whichever lane runs it, so the
output does not depend on the lane count, and `taskset` limits that count.
Each extra lane holds one more chunk's temporaries, a peak of about 2.8 MB
at the default geometry.
featurize_dataset feeds the kernel all the boxes of an image, and hog
describes one patch that already has the configured size.
"""

from __future__ import annotations

import functools
from concurrent.futures import wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (Config, DataError, Dataset, ImageRecord, _lane_pool, _usable_cpus, check_field_types,
                   replace_column)

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
class HogConfig(Config):
    """Descriptor geometry. Default patch is 50 wide by 60 high with 8x8 cells,
    giving a 6x7 cell grid, 5x6 overlapping 2x2 blocks, and 1080 dimensions."""

    key = "hog_config"

    resize_w: int = 50
    resize_h: int = 60
    cell_size: int = 8
    orientation_bins: int = 9
    block_size: int = 2
    block_stride: int = 1
    clip_value: float = 0.2

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("resize_w", "resize_h", "cell_size", "orientation_bins", "block_size", "block_stride"):
            if getattr(self, name) <= 0:
                raise DataError(f"HogConfig.{name} must be positive")
        for name in ("resize_w", "resize_h"):  # the [-1, 0, 1] gradient needs two pixels
            if getattr(self, name) < 2:
                raise DataError(f"HogConfig.{name} must be at least 2, got {getattr(self, name)}")
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


# Boxes per _hog_stack call. A chunk's temporaries are a few (16, resize_h,
# resize_w) arrays, so peak memory grows with the number of lanes, not of boxes.
_CHUNK_BOXES = 16


def _shifted(flat: np.ndarray, offset: int) -> np.ndarray:
    """flat from offset on, or its last pixel alone when offset runs past it:
    in a raster 1 pixel wide or high, where every read of that neighbour has
    weight 0."""
    return flat[min(offset, flat.size - 1):]


def _check_inside(image: GrayImage, boxes: np.ndarray) -> None:
    """Raise a DataError naming the first of the (B, 4) boxes that leaves the image."""
    width, height = image.width, image.height
    outside = (boxes[:, 0] < 0) | (boxes[:, 1] < 0) | (boxes[:, 2] > width) | (boxes[:, 3] > height)
    if outside.any():
        box = [float(v) for v in boxes[np.argmax(outside)]]
        raise DataError(f"box {box} lies outside the {width}x{height} image")


def _resample(image: GrayImage, boxes: np.ndarray, config: HogConfig) -> np.ndarray:
    """(B, resize_h, resize_w) bilinear resamples of the (B, 4) box regions.

    Sample points sit at output pixel centers mapped into the box, so a box
    covering the whole image at the target size reproduces it exactly.
    Samples are clamped to the image, replicating border pixels.
    """
    _check_inside(image, boxes)
    width, height = image.width, image.height
    x_min, y_min, x_max, y_max = boxes.T[:, :, None]
    xs = x_min + (np.arange(config.resize_w) + 0.5) * ((x_max - x_min) / config.resize_w) - 0.5
    ys = y_min + (np.arange(config.resize_h) + 0.5) * ((y_max - y_min) / config.resize_h) - 0.5
    np.clip(xs, 0.0, width - 1.0, out=xs)
    np.clip(ys, 0.0, height - 1.0, out=ys)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0)[:, None, :]
    fy = (ys - y0)[:, :, None]

    # Each corner is gathered at the top-left corner's flat index from the
    # raster shifted by 1, width or width + 1 pixels, and weighted as it
    # arrives. The shifted read leaves the clamped neighbour only where x0 is
    # the last column or y0 the last row. Samples are clamped to the raster,
    # so there the sample sits on that column or row, fx or fy is exactly 0,
    # and the finite pixel read instead (mode="clip" keeps every read in the
    # raster) adds exactly 0.
    flat = image.pixels.ravel()
    index = (y0 * width)[:, :, None] + x0[:, None, :]
    top = flat.take(index)
    top *= 1.0 - fx
    corner = _shifted(flat, 1).take(index, mode="clip")
    corner *= fx
    top += corner
    bottom = _shifted(flat, width).take(index, mode="clip")
    bottom *= 1.0 - fx
    _shifted(flat, width + 1).take(index, out=corner, mode="clip")
    corner *= fx
    bottom += corner
    top *= 1.0 - fy
    bottom *= fy
    top += bottom
    return np.clip(top, 0.0, 1.0, out=top)  # as GrayImage clips every patch


def _centered_differences(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[-1, 0, 1] differences along the last axis of p, with replicated borders,
    at its first out.shape[-1] positions (written into out)."""
    used, length = out.shape[-1], p.shape[-1]
    inner = min(used, length - 1)
    np.subtract(p[..., 2:inner + 1], p[..., :inner - 1], out=out[..., 1:inner])
    np.subtract(p[..., 1], p[..., 0], out=out[..., 0])
    if used == length:
        np.subtract(p[..., -1], p[..., -2], out=out[..., -1])
    return out


def _unsigned(theta: np.ndarray, work: np.ndarray) -> np.ndarray:
    """np.mod(theta, pi) in place for theta in [-pi, pi], at a fraction of its cost.

    pi itself maps to 0 and negative angles move up by pi, which is the same
    rounded sum np.mod makes. work is a buffer of theta's shape.
    """
    theta[theta == np.pi] = 0.0
    theta += np.multiply(theta < 0.0, np.pi, out=work)
    return theta


@functools.lru_cache(maxsize=8)
def _vote_tables(config: HogConfig) -> tuple[np.ndarray, np.ndarray]:
    """The bin wrap table [0, 1, ..., bins - 1, 0] and the (_CHUNK_BOXES,
    used_h, used_w) offset of each pixel's first bin in the flattened
    (box, cell, bin) histogram of a full chunk; a smaller stack uses its
    first rows."""
    bins, cell, cells_x = config.orientation_bins, config.cell_size, config.cells_x
    rows, cols = np.indices((config.cells_y * cell, cells_x * cell))
    pixel = ((rows // cell) * cells_x + cols // cell) * bins
    box = np.arange(_CHUNK_BOXES) * (config.cells_y * cells_x * bins)
    wrap, offsets = np.arange(bins + 1) % bins, box[:, None, None] + pixel
    wrap.flags.writeable = offsets.flags.writeable = False
    return wrap, offsets


def _hog_stack(patches: np.ndarray, config: HogConfig) -> np.ndarray:
    """(B, dimension) descriptors of a (B, resize_h, resize_w) patch stack,
    B <= _CHUNK_BOXES."""
    n = len(patches)
    cells_y, cells_x, cell = config.cells_y, config.cells_x, config.cell_size
    bins, size, stride = config.orientation_bins, config.block_size, config.block_stride
    # Gradients only where cells are: partial cells at the right and bottom
    # borders are dropped.
    used_h, used_w = cells_y * cell, cells_x * cell
    gx = _centered_differences(patches[:, :used_h], np.empty((n, used_h, used_w)))
    gy = np.empty((n, used_h, used_w))
    _centered_differences(patches[:, :, :used_w].transpose(0, 2, 1), gy.transpose(0, 2, 1))
    # votes[1] holds the magnitude until it becomes the hi votes; gy becomes
    # the bin coordinate and gx the floor of it, so a chunk allocates little.
    # Pixels lie in [0, 1], so |gx|, |gy| <= 1 and gx² + gy² cannot overflow;
    # a gradient below about 1e-154 squares to 0, which moves no descriptor
    # entry by more than about 1e-140.
    votes = np.empty((2, n, used_h, used_w))
    magnitude = np.multiply(gx, gx, out=votes[1])
    magnitude += np.multiply(gy, gy, out=votes[0])
    np.sqrt(magnitude, out=magnitude)
    coord = _unsigned(np.arctan2(gy, gx, out=gy), work=gx)
    coord *= bins / np.pi
    lo = np.floor(coord, out=gx)
    frac = np.subtract(coord, lo, out=coord)

    # coord lies in [0, bins], so lo is a bin or bins, which wraps to 0, and
    # wrap[1:] maps the wrapped lo to the hi bin (lo + 1) % bins. The raw lo
    # sits in index[1] so that no take reads the array it writes. Indices are
    # in range, so mode="clip" changes no value and only spares take a copy
    # of its output.
    wrap, offsets = _vote_tables(config)
    index = np.empty((2, n, used_h, used_w), dtype=np.intp)
    index[1] = lo
    wrap.take(index[1], out=index[0], mode="clip")
    wrap[1:].take(index[0], out=index[1], mode="clip")
    index += offsets[:n]
    np.subtract(1.0, frac, out=votes[0])
    votes[0] *= magnitude
    magnitude *= frac
    # One bincount over flattened (box, cell, bin) indices. Within each box the
    # lo votes come first, then the hi votes, each in pixel order, so every
    # histogram entry adds its votes in the same order as one np.add.at per
    # box would.
    hist = np.bincount(index.ravel(), votes.ravel(), minlength=n * cells_y * cells_x * bins)
    hist = hist.reshape(n, cells_y, cells_x, bins)

    # L2-hys over every block at once: (B, blocks_y, blocks_x, size * size * bins).
    windows = np.lib.stride_tricks.sliding_window_view(hist, (size, size), axis=(1, 2))
    blocks = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    v = blocks.reshape(n, config.blocks_y, config.blocks_x, size * size * bins)
    v = v / (np.sqrt(np.sum(v * v, axis=-1, keepdims=True)) + _EPS)
    np.minimum(v, config.clip_value, out=v)
    v /= np.sqrt(np.sum(v * v, axis=-1, keepdims=True)) + _EPS
    return v.reshape(n, config.dimension)


def _describe_lane(image: GrayImage, boxes: np.ndarray, config: HogConfig, feats: np.ndarray, starts: range) -> None:
    """Describe the chunks of boxes that begin at starts into their rows of feats."""
    for start in starts:
        stop = start + _CHUNK_BOXES
        feats[start:stop] = _hog_stack(_resample(image, boxes[start:stop], config), config)


def _describe_boxes(image: GrayImage, boxes: np.ndarray, config: HogConfig) -> np.ndarray:
    """(B, dimension) descriptors of the (B, 4) boxes of one image, described
    _CHUNK_BOXES at a time on up to one lane per usable CPU."""
    # Checked once up front, so the error names the first outside box
    # whichever lane reaches it first.
    _check_inside(image, boxes)
    feats = np.empty((len(boxes), config.dimension))
    starts = range(0, len(boxes), _CHUNK_BOXES)
    lanes = max(1, min(_usable_cpus(), len(starts)))
    others = [_lane_pool().submit(_describe_lane, image, boxes, config, feats, starts[lane::lanes])
              for lane in range(1, lanes)]
    try:
        _describe_lane(image, boxes, config, feats, starts[::lanes])
    finally:
        wait(others)  # no lane may still write into feats once this returns or raises
    for lane in others:
        lane.result()
    return feats


def hog(patch: GrayImage, config: HogConfig) -> np.ndarray:
    """Descriptor of a patch that already has the configured size."""
    if (patch.width, patch.height) != (config.resize_w, config.resize_h):
        raise DataError(
            f"patch is {patch.width}x{patch.height}, expected "
            f"{config.resize_w}x{config.resize_h}"
        )
    return _hog_stack(patch.pixels[None], config)[0]


def featurize_dataset(dataset: Dataset, images, config: HogConfig) -> tuple[Dataset, list[str]]:
    """Attach a descriptor made with config to every candidate of every record.

    images is anything with a get(image_id) -> GrayImage | None method (a
    plain dict works, as does PgmDirectory). A record whose image is missing,
    unreadable or not of the record's size loses any features it had and is
    reported in the returned failure list; processing continues with the
    remaining records. So every features column of the result was made with
    config, from the region of the image its boxes name.
    """
    failures: list[str] = []
    out_records: list[ImageRecord] = []
    for rec in dataset.records:
        try:
            image = images.get(rec.image_id)
            if image is None:
                raise DataError("image not found")
            if (image.width, image.height) != (rec.width, rec.height):
                raise DataError(f"image is {image.width}x{image.height}, the record says {rec.width}x{rec.height}")
            feats = _describe_boxes(image, rec.candidates.boxes, config)
            out_records.append(replace_column(rec, "features", feats))
        except (DataError, OSError) as exc:
            failures.append(f"{rec.image_id}: {exc}")
            out_records.append(replace_column(rec, "features", None))
    return Dataset(tuple(out_records)), failures


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) image source


def _parse_pgm_tokens(data: bytes, count: int, start: int, path: str | Path) -> tuple[list[int], int]:
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
            raise DataError(f"{path}: truncated PGM header")
        # ASCII digits with an optional "-", so that a negative size reaches its
        # own check; int() alone would also take "+2" and "1_2".
        token = data[pos:end]
        if not token.removeprefix(b"-").isdigit():
            raise DataError(f"{path}: invalid PGM header token {token!r}")
        tokens.append(int(token))
        pos = end
    return tokens, pos


def read_pgm(path: str | Path) -> GrayImage:
    """Read a binary (P5) 8-bit PGM file into a GrayImage."""
    data = Path(path).read_bytes()
    # The magic ends at whitespace: "P512 2" is not a 12x2 image.
    if data[:2] != b"P5" or not data[2:3].isspace():
        raise DataError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), pos = _parse_pgm_tokens(data, 3, 2, path)
    if maxval <= 0 or maxval > 255:
        raise DataError(f"{path}: only 8-bit PGM is supported, maxval={maxval}")
    pos += 1  # single whitespace byte separates header and raster
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: image size must be positive, got {width}x{height}")
    raster = data[pos:pos + width * height]
    if len(raster) < width * height:
        raise DataError(f"{path}: raster is truncated")
    samples = np.frombuffer(raster, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:  # no uint8 sample exceeds 255
        raise DataError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    values = samples.astype(np.float64) / maxval
    return GrayImage(width, height, values.reshape(height, width))


class PgmDirectory:
    """Image source backed by a directory of <image_id>.pgm files, which must exist."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise DataError(f"{self.directory}: not a directory")

    def get(self, image_id: str) -> GrayImage | None:
        path = self.directory / f"{image_id}.pgm"
        if not path.is_file():
            return None
        return read_pgm(path)
