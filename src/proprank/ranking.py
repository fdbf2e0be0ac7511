"""Partial ranking constraints, the large-margin objective, and training.

For each image the candidates are split by iou_label into a positive set P
(the k best) and a negative set Q (the lowest-ranked candidates, capped at
min(n - k, 2k)). The model is a homogeneous linear scorer w trained so that
every positive outscores every negative; the margin form asks for scores of
at least +1 on P and at most -1 on Q. Both are rows of one system A w >= 1:
an image contributes its P feature rows and its negated Q rows [P; -Q]. The
all-pairs baseline asks (x_p - x_q) . w >= 1 of every ordered pair, which it
evaluates as s_p - s_q from the candidate scores s = X w without building the
n(n-1)/2 difference rows. The soft objective charges each image a single
slack equal to its worst row violation (per-image slack), or every row or
pair its own hinge (per-row slack, used by the per-constraint variant and
the baseline):

    J(w) = 0.5 * ||w||^2 + C * sum_j max(0, 1 - min_{r in image j} a_r . w)

Hard margin is the same problem in the limit of large C (C = 1e6 in
practice), not a separate mode; every trained partial model carries a report
of its residual constraint violations. Training is plain deterministic
subgradient descent on the stacked rows (the 1-slack objective of Joachims,
"Training Linear SVMs in Linear Time", KDD 2006) and is bit-reproducible for
a fixed dataset and config.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (Config, DataError, Dataset, ImageRecord, atomic_write_text, check_field_types, dataset_digest,
                   json_field, json_value, rank_by_label, read_json)
from .core import _FORK_MIN_STEPS, _as_float, _as_int, _forked_shares, _lanes, _values
from .features import HogConfig

logger = logging.getLogger(__name__)

# Epochs with no meaningful improvement tolerated before stopping early.
_PATIENCE = 50


class NumericError(RuntimeError):
    """Raised when training produces non-finite numbers."""


def negatives_cap(n: int, k: int) -> int:
    """Size of the negative set: min(n - k, 2k)."""
    return min(n - k, 2 * k)


@dataclass(frozen=True)
class TrainingConfig(Config):
    """Solver settings.

    The step schedule is not a setting: step t (counted over every image
    visit) has size eta_t = N / (1 + t) for N training images, the classic
    N/t schedule for an objective whose quadratic term has strong convexity 1.
    per_image_slack chooses between one slack per image and one per row.
    """

    k: int = 20
    C: float = 1.0
    epochs: int = 200
    convergence_tol: float = 1e-6
    per_image_slack: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.k < 1:
            raise DataError("k must be at least 1")
        if not 0.0 < self.C < math.inf:
            raise DataError(f"C must be positive and finite, got {self.C}")
        if self.epochs < 1:
            raise DataError("epochs must be at least 1")
        if not 0.0 <= self.convergence_tol < math.inf:
            raise DataError(f"convergence_tol must be non-negative and finite, got {self.convergence_tol}")


@dataclass(frozen=True)
class ConstraintPartition:
    """Per-image candidate index sets; ordering constraints run over P x Q.

    Both tuples are stored in label-descending (stable) rank order.
    """

    positives: tuple[int, ...]
    negatives: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.positives or not self.negatives:
            raise DataError("partition needs at least one positive and one negative")
        if set(self.positives) & set(self.negatives):
            raise DataError("positive and negative sets overlap")

    @property
    def num_constraints(self) -> int:
        return len(self.positives) * len(self.negatives)


def build_partial_constraints(record: ImageRecord, config: TrainingConfig) -> ConstraintPartition:
    """Split a labeled record into its top-k positives and capped negatives."""
    n = record.num_candidates
    if n <= config.k:
        raise DataError(
            f"{record.image_id}: needs more than k={config.k} candidates, got {n}"
        )
    order = rank_by_label(record)
    cap = negatives_cap(n, config.k)
    return ConstraintPartition(tuple(order[:config.k]), tuple(order[n - cap:]))


def constraint_count(n: int, k: int) -> tuple[int, int]:
    """(partial, full) constraint counts for one image: k(n-k) and n(n-1)/2."""
    if k < 1 or k >= n:
        raise DataError(f"need 1 <= k < n, got k={k}, n={n}")
    return k * (n - k), n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Constraint rows and the objective


class _Pairs:
    """The ordered pairs (i, j), i < j, of n label-ordered rows, with gather buffers.

    The pairs are row-major: (0, 1), (0, 2), ..., (0, n - 1), (1, 2), ...
    Images with the same number of candidates share one instance, so its
    buffers hold one image's pair margins at a time.
    """

    def __init__(self, n: int):
        self.better, self.worse = np.triu_indices(n, 1)
        self._margins = np.empty(self.better.size, dtype=np.float64)
        self._worse_scores = np.empty(self.better.size, dtype=np.float64)

    def margins(self, scores: np.ndarray) -> np.ndarray:
        """s_i - s_j of every pair, in a buffer that the next call overwrites."""
        # The indices are in range by construction; mode="raise" would gather
        # through a temporary copy to keep out intact on an error.
        scores.take(self.better, out=self._margins, mode="clip")
        scores.take(self.worse, out=self._worse_scores, mode="clip")
        return np.subtract(self._margins, self._worse_scores, out=self._margins)

    def hinge_sum(self, scores: np.ndarray) -> float:
        """Sum over every pair of max(0, 1 - (s_i - s_j))."""
        hinge = np.subtract(1.0, self.margins(scores), out=self._margins)
        return float(np.maximum(hinge, 0.0, out=hinge).sum())


@dataclass(eq=False)
class _Rows:
    """Every image's rows stacked into one matrix; image j owns rows starts[j]:starts[j+1].

    A partial image's rows are its positives, then its negated negatives, and
    num_pos[j] counts the positives; the model asks A @ w >= 1. A baseline
    image's rows are its candidates' features in label order, and pairs[j]
    asks (x_i - x_j) . w >= 1 of each of its ordered pairs.
    """

    matrix: np.ndarray
    starts: np.ndarray
    num_pos: list[int] | None = None
    pairs: list[_Pairs] | None = None

    @classmethod
    def stack(
        cls,
        blocks: list[np.ndarray],
        num_pos: list[int] | None = None,
        pairs: list[_Pairs] | None = None,
    ) -> "_Rows":
        starts = np.cumsum([0] + [b.shape[0] for b in blocks[:-1]])
        return cls(np.concatenate(blocks, axis=0), starts, num_pos, pairs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-image views of an array with one entry (or row) per matrix row."""
        return np.split(values, self.starts[1:])


def _feature_dim(dataset: Dataset) -> int:
    """Width of the constraint rows; rejects a dataset there is nothing to train on."""
    if not dataset.records:
        raise DataError("cannot train on an empty dataset")
    if dataset.feature_dim is None:
        raise DataError("dataset has no featurized candidates")
    return dataset.feature_dim


def _partial_rows(dataset: Dataset, partitions: list[ConstraintPartition]) -> _Rows:
    """Rows [P; -Q] of every image: scores >= +1 on positives and <= -1 on negatives."""
    _feature_dim(dataset)
    if len(partitions) != len(dataset.records):
        raise DataError("one partition per record is required")
    blocks = []
    for rec, part in zip(dataset.records, partitions):
        feats = rec.features_matrix()
        for idx in part.positives + part.negatives:
            if not 0 <= idx < rec.num_candidates:
                raise DataError(f"{rec.image_id}: partition index {idx} out of range")
        blocks.append(np.concatenate([feats[list(part.positives)], -feats[list(part.negatives)]]))
    return _Rows.stack(blocks, [len(part.positives) for part in partitions])


def _ranked_rows(dataset: Dataset) -> _Rows:
    """Every image's feature rows in label order, with the index of its ordered pairs."""
    dim = _feature_dim(dataset)
    blocks, pairs = [], []
    by_size: dict[int, _Pairs] = {}
    for rec in dataset.records:
        feats = rec.features_matrix()
        order = rank_by_label(rec)
        blocks.append(feats[order] if order else np.zeros((0, dim), dtype=np.float64))
        n = len(order)
        if n not in by_size:
            by_size[n] = _Pairs(n)
        pairs.append(by_size[n])
    return _Rows.stack(blocks, pairs=pairs)


def _objective(w: np.ndarray, rows: _Rows, config: TrainingConfig) -> float:
    """0.5 ||w||^2 + C * slack: each image's worst row, or every row's or pair's own hinge."""
    margins = rows.matrix @ w
    if rows.pairs is not None:
        slack = sum(pairs.hinge_sum(scores) for scores, pairs in zip(rows.split(margins), rows.pairs))
    else:
        if config.per_image_slack:
            margins = np.minimum.reduceat(margins, rows.starts)
        slack = float(np.sum(np.maximum(0.0, 1.0 - margins)))
    return 0.5 * float(w @ w) + config.C * slack


def objective(
    w: np.ndarray,
    dataset: Dataset,
    partitions: list[ConstraintPartition],
    config: TrainingConfig,
) -> float:
    """Value of the regularized soft-margin objective at w."""
    w = np.asarray(w, dtype=np.float64)
    rows = _partial_rows(dataset, partitions)
    if w.shape != (rows.dim,):
        raise DataError(f"weight dimension {w.shape} does not match features ({rows.dim},)")
    return _objective(w, rows, config)


def _violation_summary(w: np.ndarray, rows: _Rows) -> dict:
    """Residual constraint violations of a partial model at w.

    rank_violations counts (p, q) pairs where the positive fails to strictly
    outscore the negative; hinge_violations counts margin constraints
    (score >= +1 on P, <= -1 on Q) that are not met.
    """
    margins = rows.matrix @ w
    rank_violations = 0
    for m, n_pos in zip(rows.split(margins), rows.num_pos):
        rank_violations += int(np.sum(m[:n_pos, None] <= -m[None, n_pos:]))
    return {
        "rank_violations": rank_violations,
        "hinge_violations": int(np.sum(margins < 1.0)),
        "max_hinge_residual": max(float(np.max(1.0 - margins)), 0.0),
    }


# ---------------------------------------------------------------------------
# Trained model


@dataclass(frozen=True, eq=False)
class TrainedModel:
    weights: np.ndarray
    feature_dim: int
    training_config: TrainingConfig
    final_objective: float
    hog_config: HogConfig | None = None
    provenance: dict = field(default_factory=dict)
    violation_report: dict | None = None
    objective_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.feature_dim,):
            raise DataError(f"weights shape {w.shape} does not match feature_dim {self.feature_dim}")
        if not np.all(np.isfinite(w)):
            raise DataError("model weights are not finite")
        object.__setattr__(self, "weights", w)


def _provenance(dataset: Dataset, trainer: str) -> dict:
    """The training set's source_sha256 when it was read from a file, else its dataset_digest."""
    source = dataset.source_sha256
    return {
        **({"source_sha256": source} if source else {"dataset_digest": dataset_digest(dataset)}),
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "trainer": trainer,
    }


def _descend(
    rows: _Rows,
    config: TrainingConfig,
    trainer: str,
) -> tuple[np.ndarray, float, list[float]]:
    """Subgradient descent on the stacked rows, visiting images in order.

    Each visit t = 1, 2, ... computes the image's margins, shrinks w by
    1 - eta_t/N and adds eta_t * C times its most violated row (the lowest
    margin below 1; on ties the earlier row, so positives before negatives,
    then the lowest rank index), or on partial rows with per-constraint
    slack the sum of every row whose margin is below 1. A baseline image's
    margins are its pair margins s_i - s_j and its most violated row is
    x_i - x_j of the first such pair; an image without rows or pairs only
    shrinks w. The step size is eta_t = N / (1 + t) for N images. Progress
    is measured by the objective with the slack form of
    config.per_image_slack. The best iterate by objective value (the zero
    start included) is returned together with the best-so-far per-epoch
    objective history. A convergence_tol of zero disables early stopping.

    Each image computes its margins into a buffer of its own and every
    single-row step goes through one scratch row, so those visits allocate
    no array: at tens of rows per image, allocation and the np.argmin
    wrapper cost more than the arithmetic.
    """
    blocks = rows.split(rows.matrix)
    num_images = len(blocks)
    C = config.C
    buffers = rows.split(np.empty(rows.matrix.shape[0], dtype=np.float64))
    pairs = rows.pairs or [None] * num_images
    every_violated_row = rows.pairs is None and not config.per_image_slack
    step = np.empty(rows.dim, dtype=np.float64)

    w = np.zeros(rows.dim, dtype=np.float64)
    best_w = w.copy()
    best_obj = _objective(w, rows, config)
    history: list[float] = []
    stall = 0
    t = 0
    for epoch in range(config.epochs):
        for block, buffer, pair in zip(blocks, buffers, pairs):
            t += 1
            eta = num_images / (1.0 + t)
            margins = block.dot(w, out=buffer)
            if pair is not None:
                margins = pair.margins(margins)
            w *= 1.0 - eta / num_images
            if every_violated_row:
                violated = margins < 1.0
                if violated.any():
                    np.add.reduce(block[violated], axis=0, out=step)
                    w += np.multiply(step, eta * C, out=step)
            elif margins.size:
                i = margins.argmin()
                if margins[i] < 1.0:
                    if pair is None:
                        np.multiply(block[i], eta * C, out=step)
                    else:
                        np.subtract(block[pair.better[i]], block[pair.worse[i]], out=step)
                        np.multiply(step, eta * C, out=step)
                    w += step
        epoch_obj = _objective(w, rows, config)
        if not math.isfinite(epoch_obj):
            raise NumericError(f"objective became non-finite at epoch {epoch}")
        improved = best_obj - epoch_obj
        if epoch_obj < best_obj:
            best_obj = epoch_obj
            best_w = w.copy()
        history.append(best_obj)
        logger.debug("%s epoch %d: objective %.6g (best %.6g)", trainer, epoch, epoch_obj, best_obj)
        if config.convergence_tol > 0.0:
            if improved <= config.convergence_tol * max(abs(best_obj), 1.0):
                stall += 1
                if stall >= _PATIENCE:
                    logger.debug("%s stopped early at epoch %d", trainer, epoch)
                    break
            else:
                stall = 0
    return best_w, best_obj, history


def _fit(
    dataset: Dataset,
    rows: _Rows,
    config: TrainingConfig,
    hog_config: HogConfig | None,
    trainer: str,
) -> TrainedModel:
    """Descend on the rows and package the result as a model trained with config.

    Rows with a P/Q split (a partial model) also get a violation report.

    A set whose provenance still needs its dataset_digest (no source_sha256,
    no cached digest) is digested by the caller, on the codec lanes, while
    the descent runs in one forked child, when the codec may fork for the
    set's numbers (core._lanes) and the descent makes at least
    _FORK_MIN_STEPS image visits; the two do not depend on each other. If
    the child fails or cannot be forked, the caller descends itself, so the
    model, and a NumericError, are the same at every CPU count.
    """
    if (dataset.source_sha256 is None and dataset._digest is None
            and config.epochs * len(dataset.records) >= _FORK_MIN_STEPS
            and _lanes(2, sum(map(_values, dataset.records))) > 1):
        with _forked_shares(lambda rows: _descend(rows, config, trainer), [[rows]]) as result:
            provenance = _provenance(dataset, trainer)
            (best_w, best_obj, history), = result(0)
    else:
        best_w, best_obj, history = _descend(rows, config, trainer)
        provenance = _provenance(dataset, trainer)
    return TrainedModel(
        weights=best_w,
        feature_dim=rows.dim,
        training_config=config,
        final_objective=best_obj,
        hog_config=hog_config,
        provenance=provenance,
        violation_report=None if rows.num_pos is None else _violation_summary(best_w, rows),
        objective_history=tuple(history),
    )


def train_soft_margin(
    dataset: Dataset,
    config: TrainingConfig,
    hog_config: HogConfig | None = None,
) -> TrainedModel:
    """Train the partial ranking model by deterministic subgradient descent.

    Images are visited in dataset order each epoch; per image the single most
    violated margin constraint (ties prefer the positive side, then the
    lowest rank index) drives the step, or with per-constraint slack every
    violated one. The returned model carries a report of the residual
    constraint violations at its weights; with a large C (1e6) this is the
    hard-margin feasibility check. The per-epoch objective history records
    the best value seen so far and is therefore non-increasing, and
    final_objective never exceeds the zero-weight objective.

    An in-memory dataset whose digest is still to be computed for the
    model's provenance is digested while the descent runs on a forked lane,
    when both are long enough to pay for the fork (see _fit); the model is
    the same bits either way.
    """
    rows = _partial_rows(dataset, [build_partial_constraints(rec, config) for rec in dataset.records])
    return _fit(dataset, rows, config, hog_config, "partial")


def train_full_rank_baseline(
    dataset: Dataset,
    config: TrainingConfig,
    hog_config: HogConfig | None = None,
) -> TrainedModel:
    """Train the all-pairs baseline with the same solver machinery.

    The objective sums one hinge max(0, 1 - w . (x_p - x_q)) per ordered pair
    over every pair of candidates, n(n-1)/2 per image; each step takes the
    image's most violated pair. Images with a single candidate contribute no
    pairs, so their visits only shrink the weights. The hinge is per pair
    whatever config.per_image_slack says, and the model records
    per_image_slack as false. Pair margins are taken as score differences,
    so no difference row is built: each distinct candidate count n holds two
    index and two float entries per pair, about 16 MB at n = 1000.
    """
    config = replace(config, per_image_slack=False)
    return _fit(dataset, _ranked_rows(dataset), config, hog_config, "full_rank_baseline")


# ---------------------------------------------------------------------------
# Scoring and re-ranking


def score(model: TrainedModel, record: ImageRecord) -> np.ndarray:
    """Linear scores w . x for every candidate of the record."""
    if record.num_candidates == 0:
        return np.zeros(0, dtype=np.float64)
    feats = record.features_matrix()
    if feats.shape[1] != model.feature_dim:
        raise DataError(
            f"{record.image_id}: feature dimension {feats.shape[1]} does not match "
            f"model dimension {model.feature_dim}"
        )
    return feats @ model.weights


def rerank(model: TrainedModel, record: ImageRecord) -> list[int]:
    """Candidate indices sorted by model score descending, stable on ties."""
    scores = score(model, record)
    return [int(i) for i in np.argsort(-scores, kind="stable")]


# ---------------------------------------------------------------------------
# Model file I/O


def model_to_dict(model: TrainedModel) -> dict:
    obj = {
        "weights": [float(v) for v in model.weights],
        "feature_dim": model.feature_dim,
        "config": model.training_config.to_dict(),
        "final_objective": model.final_objective,
        "objective_history": [float(v) for v in model.objective_history],
    }
    if model.hog_config is not None:
        obj["hog_config"] = model.hog_config.to_dict()
    obj["provenance"] = dict(model.provenance)
    if model.violation_report is not None:
        obj["violation_report"] = dict(model.violation_report)
    return obj


def model_from_dict(obj) -> TrainedModel:
    """A TrainedModel from a decoded model file; numbers take the dataset
    decoder's rules, and provenance and violation_report must be objects."""
    config = json_field(json_value(obj, dict, "model"), "config", dict)
    if config.get("mode") == "hard":  # an older file, trained with C = hard_mode_C
        config = {**config, "C": config.get("hard_mode_C", 1e6)}
    hog_config = json_field(obj, "hog_config", default=None)
    return TrainedModel(
        weights=np.array([_as_float(v, "weights entry") for v in json_field(obj, "weights", list)], dtype=np.float64),
        feature_dim=_as_int(json_field(obj, "feature_dim"), "feature_dim"),
        training_config=TrainingConfig.from_dict(config),
        final_objective=_as_float(json_field(obj, "final_objective"), "final_objective"),
        hog_config=None if hog_config is None else HogConfig.from_dict(hog_config),
        provenance=json_field(obj, "provenance", dict, {}),
        violation_report=json_field(obj, "violation_report", dict, None),
        objective_history=tuple(_as_float(v, "objective_history entry")
                                for v in json_field(obj, "objective_history", list, ())),
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2, allow_nan=False) + "\n")


def load_model(path: str | Path) -> TrainedModel:
    return read_json(path, model_from_dict, "model")[0]
