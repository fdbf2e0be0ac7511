"""Independent reference implementations used to check the package.

Everything here is deliberately written with different machinery than the
code under test: pixel-set enumeration for IoU, plain-Python loops for the
metrics, for HOG the per-box code (np.add.at cell votes, a Python loop over
blocks) and the batched bilinear resampler as it gathered its four corners
through four broadcast index sums, for the training objective an exact dual
QP whose duality gap certifies its optimum, for the trainer's steps the
descent loop as it ran on materialized constraint rows, one x_p - x_q row per
baseline pair, and for the geometric synth its uniform clutter boxes drawn
with four scalar Generator.uniform calls each, and for eval's ranking
recovery a dict of each box's unused positions. Slow is fine; these only run
on small inputs.
"""

from __future__ import annotations

import numpy as np

from proprank import Box, DataError, Dataset, GrayImage, GroundTruthObject
from proprank.core import best_iou, record_from_columns
from proprank.synthdata import (
    _EXACT_COPIES,
    _LOOSE_COPIES,
    _TIGHT_COPIES,
    GEOMETRIC_FEATURE_DIM,
    _geometry_features,
    _jittered_box,
    _rng,
)


# ---------------------------------------------------------------------------
# IoU by pixel-set enumeration


def pixel_iou(a, b, scale: int = 1) -> float:
    """IoU of two boxes via explicit half-open integer pixel sets.

    Boxes are [x_min, y_min, x_max, y_max]; with scale > 1 the coordinates
    are multiplied first, so boxes on a 1/scale grid are handled exactly.
    """
    def pixels(box):
        x0, y0, x1, y1 = (v * scale for v in box)
        for v in (x0, y0, x1, y1):
            if abs(v - round(v)) > 1e-9:
                raise ValueError(f"coordinate {v} is not on the 1/{scale} grid")
        x0, y0, x1, y1 = (int(round(v)) for v in (x0, y0, x1, y1))
        return {(x, y) for x in range(x0, x1) for y in range(y0, y1)}

    pa, pb = pixels(a), pixels(b)
    union = pa | pb
    if not union:
        return 0.0
    return len(pa & pb) / len(union)


# ---------------------------------------------------------------------------
# Metrics by brute force
#
# Records are plain dicts: {"gts": [(class_label, box), ...], "cands": [box, ...]}
# with boxes as 4-lists. rankings is a list of index lists, one per record.


def _iou_ref(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _best_overlaps(records, rankings, m):
    per_object = []
    for rec, order in zip(records, rankings):
        for cls, gt_box in rec["gts"]:
            best = 0.0
            for idx in order[:m]:
                best = max(best, _iou_ref(gt_box, rec["cands"][idx]))
            per_object.append((cls, best))
    return per_object


def brute_force_dr(records, rankings, delta, m, strict=True):
    """(covered, total, percentage) by direct enumeration."""
    per_object = _best_overlaps(records, rankings, m)
    covered = 0
    for _, best in per_object:
        if (best > delta) if strict else (best >= delta):
            covered += 1
    total = len(per_object)
    return covered, total, 100.0 * covered / total


def brute_force_mabo(records, rankings, m):
    """(per-class ABO dict, unweighted mean over classes)."""
    per_object = _best_overlaps(records, rankings, m)
    by_class: dict = {}
    for cls, best in per_object:
        by_class.setdefault(cls, []).append(best)
    abo = {cls: sum(vals) / len(vals) for cls, vals in by_class.items()}
    return abo, sum(abo.values()) / len(abo)


# ---------------------------------------------------------------------------
# HOG one box at a time
#
# image is a proprank.GrayImage, box a proprank.Box and config a
# proprank.HogConfig; only their fields are read.

_EPS = 1e-10


def crop_and_resize(image, box, config):
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


def _gradients(pixels):
    gx = np.empty_like(pixels)
    gx[:, 1:-1] = pixels[:, 2:] - pixels[:, :-2]
    gx[:, 0] = pixels[:, 1] - pixels[:, 0]
    gx[:, -1] = pixels[:, -1] - pixels[:, -2]
    gy = np.empty_like(pixels)
    gy[1:-1, :] = pixels[2:, :] - pixels[:-2, :]
    gy[0, :] = pixels[1, :] - pixels[0, :]
    gy[-1, :] = pixels[-1, :] - pixels[-2, :]
    return gx, gy


def hog(patch, config):
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


def describe_box(image, box, config):
    return hog(crop_and_resize(image, box, config), config)


def resample_stack(image, boxes, config):
    """(B, resize_h, resize_w) bilinear resamples of the (B, 4) box regions,
    each corner gathered from the flat raster at its own clamped index sum."""
    width, height = image.width, image.height
    outside = (boxes[:, 0] < 0) | (boxes[:, 1] < 0) | (boxes[:, 2] > width) | (boxes[:, 3] > height)
    if outside.any():
        box = [float(v) for v in boxes[np.argmax(outside)]]
        raise DataError(f"box {box} lies outside the {width}x{height} image")
    x_min, y_min, x_max, y_max = boxes.T[:, :, None]
    xs = x_min + (np.arange(config.resize_w) + 0.5) * ((x_max - x_min) / config.resize_w) - 0.5
    ys = y_min + (np.arange(config.resize_h) + 0.5) * ((y_max - y_min) / config.resize_h) - 0.5
    np.clip(xs, 0.0, width - 1.0, out=xs)
    np.clip(ys, 0.0, height - 1.0, out=ys)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0)[:, None, :]
    fy = (ys - y0)[:, :, None]
    col0, col1 = x0[:, None, :], np.minimum(x0 + 1, width - 1)[:, None, :]
    row0, row1 = (y0 * width)[:, :, None], (np.minimum(y0 + 1, height - 1) * width)[:, :, None]

    flat = image.pixels.ravel()
    index = row0 + col0
    top = flat.take(index)
    top *= 1.0 - fx
    corner = flat.take(np.add(row0, col1, out=index))
    corner *= fx
    top += corner
    bottom = flat.take(np.add(row1, col0, out=index))
    bottom *= 1.0 - fx
    flat.take(np.add(row1, col1, out=index), out=corner, mode="clip")
    corner *= fx
    bottom += corner
    top *= 1.0 - fy
    bottom *= fy
    top += bottom
    return np.clip(top, 0.0, 1.0, out=top)


# ---------------------------------------------------------------------------
# Training objective by direct evaluation and by its certified minimum
#
# A problem is a list of (P, Q) pairs of 2-D float arrays, one per image.


def eval_objective(w, problem, C, per_image=True) -> float:
    w = list(w)
    total = 0.5 * sum(v * v for v in w)
    for P, Q in problem:
        sp = [sum(wi * xi for wi, xi in zip(w, row)) for row in P]
        sq = [sum(wi * xi for wi, xi in zip(w, row)) for row in Q]
        if per_image:
            total += C * max(0.0, 1.0 - min(sp), 1.0 + max(sq))
        else:
            total += C * sum(max(0.0, 1.0 - s) for s in sp)
            total += C * sum(max(0.0, 1.0 + s) for s in sq)
    return total


def certified_minimum(problem, C, dim, per_image=True):
    """Exact minimum of the convex objective, bracketed by primal and dual values.

    Solves the dual QP  max sum(alpha) - 0.5 |sum_r alpha_r a_r|^2  over
    alpha >= 0 with sum_{r in image} alpha_r <= C (per-image slack) or
    alpha_r <= C (per-row slack), where the rows a_r are each image's
    positives and negated negatives. Returns (w, upper, lower): the primal
    point w = sum_r alpha_r a_r, upper = eval_objective(w), and the dual
    value lower. By weak duality lower <= min J <= upper, so upper - lower
    certifies how far either is from the true minimum.
    """
    from scipy.optimize import minimize

    rows, owner = [], []
    for j, (P, Q) in enumerate(problem):
        for sign, xs in ((1.0, P), (-1.0, Q)):
            for x in xs:
                owner.append(j if per_image else len(rows))
                rows.append(sign * np.asarray(x, dtype=np.float64))
    A = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    owner = np.array(owner)
    gram = A @ A.T

    def negative_dual(alpha):
        return 0.5 * alpha @ gram @ alpha - alpha.sum()

    def gradient(alpha):
        return gram @ alpha - 1.0

    if per_image:
        groups = (owner[None, :] == np.arange(len(problem))[:, None]).astype(np.float64)
        bounds = [(0.0, None)] * len(rows)
        constraints = {"type": "ineq", "fun": lambda a: C - groups @ a, "jac": lambda a: -groups}
    else:
        bounds = [(0.0, C)] * len(rows)
        constraints = ()
    res = minimize(
        negative_dual,
        np.zeros(len(rows)),  # alpha = 0 is feasible
        jac=gradient,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    # Make alpha exactly dual feasible, so its value is a true lower bound.
    alpha = np.clip(res.x, 0.0, C)
    if per_image:
        alpha *= (C / np.maximum(groups @ alpha, C))[owner]
    w = A.T @ alpha
    lower = float(alpha.sum() - 0.5 * w @ w)
    return w, float(eval_objective(w, problem, C, per_image)), lower


# ---------------------------------------------------------------------------
# Subgradient descent on materialized constraint rows
#
# The trainer's loop as it ran before its steps were made allocation-free:
# every image's rows are stacked into one matrix (partial images as [P; -Q],
# baseline images as one x_p - x_q row per ordered pair) and each step
# allocates its margins and its update. Datasets are proprank.Dataset; only
# their labels and feature matrices are read.


def _label_order(rec):
    labels = rec.iou_labels()
    return sorted(range(len(labels)), key=lambda i: -labels[i])


def partial_row_blocks(dataset, k):
    """Per image its top-k rows and negated capped bottom rows, [P; -Q]; and k per image."""
    blocks = []
    for rec in dataset.records:
        feats = rec.features_matrix()
        order = _label_order(rec)
        n = len(order)
        cap = min(n - k, 2 * k)
        blocks.append(np.concatenate([feats[order[:k]], -feats[order[n - cap:]]]))
    return blocks, [k] * len(blocks)


def pair_row_blocks(dataset):
    """Per image one x_p - x_q row per ordered pair (better, worse) under the label ranking."""
    blocks = []
    for rec in dataset.records:
        feats = rec.features_matrix()
        order = _label_order(rec)
        pairs = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
        if pairs:
            blocks.append(feats[[p for p, _ in pairs]] - feats[[q for _, q in pairs]])
        else:
            blocks.append(np.zeros((0, dataset.feature_dim), dtype=np.float64))
    return blocks


def _stacked_objective(w, matrix, starts, C, per_image_slack):
    margins = matrix @ w
    if per_image_slack:
        margins = np.minimum.reduceat(margins, starts)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def materialized_descent(row_blocks, config, every_violated_row, patience=50):
    """(best w, best objective, best-so-far history) of the N/(1+t) subgradient loop.

    config is a proprank.TrainingConfig; only C, epochs, convergence_tol and
    per_image_slack are read.
    """
    starts = np.cumsum([0] + [b.shape[0] for b in row_blocks[:-1]])
    matrix = np.concatenate(row_blocks, axis=0)
    blocks = np.split(matrix, starts[1:])
    num_images = len(blocks)
    C = config.C

    def total(w):
        return _stacked_objective(w, matrix, starts, C, config.per_image_slack)

    w = np.zeros(matrix.shape[1], dtype=np.float64)
    best_w = w.copy()
    best_obj = total(w)
    history = []
    stall = 0
    t = 0
    for epoch in range(config.epochs):
        for block in blocks:
            t += 1
            eta = num_images / (1.0 + t)
            margins = block @ w
            w *= 1.0 - eta / num_images
            if every_violated_row:
                violated = margins < 1.0
                if np.any(violated):
                    w += (eta * C) * np.sum(block[violated], axis=0)
            elif margins.size:
                i = int(np.argmin(margins))
                if margins[i] < 1.0:
                    w += (eta * C) * block[i]
        epoch_obj = total(w)
        improved = best_obj - epoch_obj
        if epoch_obj < best_obj:
            best_obj = epoch_obj
            best_w = w.copy()
        history.append(best_obj)
        if config.convergence_tol > 0.0:
            if improved <= config.convergence_tol * max(abs(best_obj), 1.0):
                stall += 1
                if stall >= patience:
                    break
            else:
                stall = 0
    return best_w, best_obj, history


def violation_report(w, row_blocks, num_pos):
    """rank_violations, hinge_violations and max_hinge_residual of [P; -Q] rows at w."""
    margins = np.concatenate(row_blocks, axis=0) @ w
    starts = np.cumsum([0] + [b.shape[0] for b in row_blocks[:-1]])
    rank_violations = 0
    for m, n_pos in zip(np.split(margins, starts[1:]), num_pos):
        rank_violations += int(np.sum(m[:n_pos, None] <= -m[None, n_pos:]))
    return {
        "rank_violations": rank_violations,
        "hinge_violations": int(np.sum(margins < 1.0)),
        "max_hinge_residual": max(float(np.max(1.0 - margins)), 0.0),
    }


def grid_minimum_1d(problem, C, per_image=True, lo=-3.0, hi=3.0, step=1e-4):
    """Dense 1-D grid search; problem features must be 1-dimensional."""
    best_w, best = 0.0, eval_objective([0.0], problem, C, per_image)
    w = lo
    while w <= hi:
        val = eval_objective([w], problem, C, per_image)
        if val < best:
            best_w, best = w, val
        w += step
    return best_w, best


def random_instance(rng, max_images=3, max_n=6, max_k=2, max_dim=3):
    """Labels and features for a tiny random training problem.

    Returns (instance, k) where instance is a list of (labels, feats) pairs,
    one per image, all with a common feature dimension.
    """
    num_images = int(rng.integers(1, max_images + 1))
    k = int(rng.integers(1, max_k + 1))
    dim = int(rng.integers(1, max_dim + 1))
    instance = []
    for _ in range(num_images):
        n = int(rng.integers(k + 1, max_n + 1))
        labels = rng.uniform(0.0, 1.0, size=n)
        feats = rng.normal(size=(n, dim))
        instance.append((labels, feats))
    return instance, k


def problem_from_instance(instance, k):
    """Top-k / bottom-cap (P, Q) feature pairs, derived independently."""
    problem = []
    for labels, feats in instance:
        n = len(labels)
        order = sorted(range(n), key=lambda i: -labels[i])
        cap = min(n - k, 2 * k)
        problem.append((feats[order[:k]], feats[order[n - cap:]]))
    return problem


# ---------------------------------------------------------------------------
# Geometric synth with scalar uniform draws
#
# synthdata.generate_geometric_dataset as it drew each uniform clutter box
# with four scalar Generator.uniform calls and assembled the boxes as a list.
# Everything else (groundtruth, jittered copies, labels, features) goes
# through the same draws in the same order.


def _uniform_box(rng, width, height):
    w = float(rng.uniform(4.0, 0.9 * width))
    h = float(rng.uniform(4.0, 0.9 * height))
    x0 = float(rng.uniform(0.0, width - w))
    y0 = float(rng.uniform(0.0, height - h))
    return [x0, y0, x0 + w, y0 + h]


def scalar_geometric_dataset(config):
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

        structured = []
        for gt in groundtruth:
            base = gt.box.as_list()
            for _ in range(_EXACT_COPIES):
                structured.append(base)
            for _ in range(_TIGHT_COPIES):
                structured.append(_jittered_box(rng, base, 0.03, width, height))
            for _ in range(_LOOSE_COPIES):
                structured.append(_jittered_box(rng, base, float(rng.uniform(0.1, 0.35)), width, height))
        max_structured = max(0, n - 2 * config.objects_per_image[1])
        structured = structured[:max_structured]
        boxes = structured + [_uniform_box(rng, width, height) for _ in range(n - len(structured))]
        boxes = np.array(boxes, dtype=np.float64)[rng.permutation(len(boxes))]
        labels = best_iou(boxes, groundtruth)
        features = _geometry_features(boxes, labels, width, height, rng, config.noise_sigma)
        records.append(record_from_columns(
            f"geo-{config.seed}-{j:05d}", width, height, groundtruth, boxes, labels, features
        ))
    return Dataset(tuple(records), GEOMETRIC_FEATURE_DIM)


# ---------------------------------------------------------------------------
# eval's ranking recovery with a dict of each box's unused base positions


def recover_rankings(base: Dataset, other: Dataset) -> dict[str, list[int]]:
    """Each candidate of other takes the first unused base candidate whose
    box is equal as Python floats compare; a candidate with none is a
    DataError, and so is a record whose candidate count differs."""
    rankings: dict[str, list[int]] = {}
    for rec in other.records:
        base_boxes, boxes = base.get(rec.image_id).candidates.boxes.tolist(), rec.candidates.boxes.tolist()
        if len(base_boxes) != len(boxes):
            raise DataError(f"{rec.image_id}: candidate counts differ ({len(base_boxes)} vs {len(boxes)})")
        unused: dict[tuple, list[int]] = {}  # each box's unused positions in base, the first one last
        for i in reversed(range(len(base_boxes))):
            unused.setdefault(tuple(base_boxes[i]), []).append(i)
        rankings[rec.image_id] = []
        for j, box in enumerate(boxes):
            if not unused.get(tuple(box)):
                raise DataError(f"{rec.image_id}: candidate {j} box {box} does not match the dataset's candidates")
            rankings[rec.image_id].append(unused[tuple(box)].pop())
    return rankings
