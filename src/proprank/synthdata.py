"""Deterministic synthetic datasets with planted structure.

All randomness comes from the Philox counter-based generator (numpy's
Philox4x64-10 bit generator). Each image draws from an independent substream
keyed by (seed, image index), so generation is reproducible bit for bit and
insensitive to evaluation order; the key scheme is recorded by
synth_metadata so dataset files can document their own provenance.

Feature-only mode plants a unit-norm scoring direction: every candidate gets
a latent quality y ~ Uniform[0, 1], features y * w_star + noise on the first
d - 1 coordinates, and iou_label = y. The final coordinate is a constant 1.
That constant is deliberate: with qualities in [0, 1] all planted scores are
non-negative, so without an intercept coordinate no linear scorer could push
negatives below a symmetric margin and the large-margin problem would be
infeasible by construction. Groundtruth lists are empty and boxes are unit
placeholders; these datasets exercise the solver, not the geometry.

Geometric mode lays out groundtruth boxes and candidate boxes (exact copies,
jittered copies, and uniform random boxes, shuffled), labels them with their
true best overlap, and embeds (iou_label, box geometry) into a fixed feature
vector plus noise. The embedding is a test-harness construction so that a
linear model can rank by IoU; it is not a claim about real descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Box, Config, DataError, Dataset, GroundTruthObject, best_iou, check_field_types, record_from_columns

PLANTED_STREAM = 2**64 - 1
GEOMETRIC_FEATURE_DIM = 12
_PRNG_NAME = "numpy.random.Philox (Philox4x64-10)"
_KEY_SCHEME = "key = (seed << 64) | stream; stream = image index, planted vector stream = 2**64 - 1"

# Candidates built around each groundtruth box: one exact copy, a few tight
# jitters, and a spread of loose jitters; the rest of the budget is uniform.
_EXACT_COPIES = 1
_TIGHT_COPIES = 3
_LOOSE_COPIES = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream))


@dataclass(frozen=True)
class SynthConfig(Config):
    seed: int = 0
    num_images: int = 100
    candidates_per_image: int = 100
    feature_dim: int = 16
    noise_sigma: float = 0.0
    mode: str = "feature_only"
    image_size: tuple[int, int] = (640, 480)
    objects_per_image: tuple[int, int] = (1, 3)
    classes: int = 3

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0 <= self.seed < 2**63:
            raise DataError("seed must lie in [0, 2**63)")
        if self.num_images < 1 or self.candidates_per_image < 1:
            raise DataError("num_images and candidates_per_image must be positive")
        if self.mode not in ("feature_only", "geometric"):
            raise DataError(f"mode must be 'feature_only' or 'geometric', got {self.mode!r}")
        if self.feature_dim < 2:
            raise DataError("feature_dim must be at least 2")
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise DataError("noise_sigma must be finite and non-negative")
        w, h = self.image_size
        if w < 8 or h < 8:
            raise DataError("image_size must be at least 8x8")
        lo, hi = self.objects_per_image
        if not 1 <= lo <= hi:
            raise DataError("objects_per_image must be an increasing range starting at 1 or more")
        if self.classes < 1:
            raise DataError("classes must be positive")


def generate_feature_dataset(config: SynthConfig) -> tuple[Dataset, np.ndarray]:
    """Feature-only dataset plus the planted unit-norm scoring vector.

    The returned vector lives in the full feature space (zero on the constant
    coordinate) and reproduces the latent quality as its score, so it ranks
    every image's candidates exactly by iou_label when noise_sigma is zero.
    """
    if config.mode != "feature_only":
        raise DataError(f"config mode is {config.mode!r}, expected 'feature_only'")
    d = config.feature_dim
    raw = _rng(config.seed, PLANTED_STREAM).standard_normal(d - 1)
    norm = float(np.sqrt(raw @ raw))
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        raise DataError("degenerate planted direction")
    direction = raw / norm
    planted = np.concatenate([direction, [0.0]])

    records = []
    n = config.candidates_per_image
    for j in range(config.num_images):
        rng = _rng(config.seed, j)
        quality = rng.uniform(0.0, 1.0, size=n)
        feats = quality[:, None] * direction[None, :]
        if config.noise_sigma > 0.0:
            feats = feats + config.noise_sigma * rng.standard_normal((n, d - 1))
        feats = np.concatenate([feats, np.ones((n, 1))], axis=1)
        boxes = np.tile([0.0, 0.0, 1.0, 1.0], (n, 1))  # unit placeholders
        records.append(record_from_columns(f"feat-{config.seed}-{j:05d}", 1, 1, (), boxes, quality, feats))
    return Dataset(tuple(records), d), planted


def _uniform_boxes(rng: np.random.Generator, m: int, width: int, height: int) -> np.ndarray:
    """(m, 4) boxes of uniform size (4 px to 0.9 of the image) and position.

    Generator.uniform(low, high) is low + (high - low) * next_double, and
    Generator.random draws the same doubles in the same order. So one (m, 4)
    block of them, a row per box with columns w, h, x0 and y0, gives the same
    bits as four scalar uniform draws per box, one box after another.
    """
    u = rng.random((m, 4))
    w = 4.0 + (0.9 * width - 4.0) * u[:, 0]
    h = 4.0 + (0.9 * height - 4.0) * u[:, 1]
    x0 = (width - w) * u[:, 2]
    y0 = (height - h) * u[:, 3]
    return np.stack([x0, y0, x0 + w, y0 + h], axis=1)


def _jittered_box(rng: np.random.Generator, base: list, scale: float, width: int, height: int) -> list[float]:
    x_min, y_min, x_max, y_max = base
    bw = x_max - x_min
    bh = y_max - y_min
    dx0, dx1, dy0, dy1 = rng.uniform(-scale, scale, size=4)
    x0 = min(max(x_min + dx0 * bw, 0.0), width - 2.0)
    y0 = min(max(y_min + dy0 * bh, 0.0), height - 2.0)
    x1 = min(max(x_max + dx1 * bw, x0 + 2.0), float(width))
    y1 = min(max(y_max + dy1 * bh, y0 + 2.0), float(height))
    return [x0, y0, x1, y1]


def _geometry_features(
    boxes: np.ndarray, labels: np.ndarray, width: int, height: int, rng: np.random.Generator, noise_sigma: float
) -> np.ndarray:
    """(n, GEOMETRIC_FEATURE_DIM) features of (n, 4) boxes and their (n,) labels."""
    noise = rng.standard_normal((len(boxes), 5))
    x_min, y_min, x_max, y_max = boxes.T
    bw = (x_max - x_min) / width
    bh = (y_max - y_min) / height
    cx = 0.5 * (x_min + x_max) / width
    cy = 0.5 * (y_min + y_max) / height
    return np.stack([
        labels + noise_sigma * noise[:, 0],
        2.0 * labels - 1.0 + noise_sigma * noise[:, 1],
        labels * labels + noise_sigma * noise[:, 2],
        cx, cy, bw, bh, bw * bh, bw / (bw + bh),
        np.ones(len(boxes)),
        noise[:, 3], noise[:, 4],
    ], axis=1)


def generate_geometric_dataset(config: SynthConfig) -> Dataset:
    """Boxes, groundtruth, true overlap labels, and rankable embedded features.

    Candidate order is shuffled per image, mimicking an unranked upstream
    proposal stage. Labels are each box's best IoU against the groundtruth
    (core.best_iou, as label_candidates computes them). Feature vectors have
    GEOMETRIC_FEATURE_DIM coordinates as documented in _geometry_features
    (three noisy functions of the label, normalized geometry, a constant
    intercept, and two pure noise channels).
    """
    if config.mode != "geometric":
        raise DataError(f"config mode is {config.mode!r}, expected 'geometric'")
    width, height = config.image_size
    n = config.candidates_per_image
    records = []
    for j in range(config.num_images):
        rng = _rng(config.seed, j)
        lo, hi = config.objects_per_image
        num_objects = int(rng.integers(lo, hi + 1))
        groundtruth = []
        for _ in range(num_objects):
            cls = int(rng.integers(0, config.classes))
            bw = float(rng.uniform(0.15, 0.45) * width)
            bh = float(rng.uniform(0.15, 0.45) * height)
            x0 = float(rng.uniform(0.0, width - bw))
            y0 = float(rng.uniform(0.0, height - bh))
            groundtruth.append(GroundTruthObject(f"class-{cls}", Box(x0, y0, x0 + bw, y0 + bh)))

        structured: list[list[float]] = []
        for gt in groundtruth:
            base = gt.box.as_list()
            for _ in range(_EXACT_COPIES):
                structured.append(base)  # exact copy, iou_label 1.0 by construction
            for _ in range(_TIGHT_COPIES):
                structured.append(_jittered_box(rng, base, 0.03, width, height))
            for _ in range(_LOOSE_COPIES):
                structured.append(_jittered_box(rng, base, float(rng.uniform(0.1, 0.35)), width, height))
        max_structured = max(0, n - 2 * config.objects_per_image[1])
        structured = structured[:max_structured]
        uniform = _uniform_boxes(rng, n - len(structured), width, height)
        boxes = np.concatenate([np.reshape(structured, (-1, 4)), uniform])[rng.permutation(n)]
        labels = best_iou(boxes, groundtruth)
        features = _geometry_features(boxes, labels, width, height, rng, config.noise_sigma)
        records.append(record_from_columns(
            f"geo-{config.seed}-{j:05d}", width, height, groundtruth, boxes, labels, features
        ))
    return Dataset(tuple(records), GEOMETRIC_FEATURE_DIM)


def synth_metadata(config: SynthConfig, planted: np.ndarray | None = None) -> dict:
    """Sidecar metadata documenting the generator, its constants, and the config."""
    meta = {
        "config": config.to_dict(),
        "prng": {"generator": _PRNG_NAME, "key_scheme": _KEY_SCHEME},
    }
    if planted is not None:
        meta["planted_weight"] = [float(v) for v in planted]
    if config.mode == "geometric":
        meta["feature_dim"] = GEOMETRIC_FEATURE_DIM
        meta["composition"] = {
            "exact_copies_per_object": _EXACT_COPIES,
            "tight_jitters_per_object": _TIGHT_COPIES,
            "loose_jitters_per_object": _LOOSE_COPIES,
        }
    return meta
