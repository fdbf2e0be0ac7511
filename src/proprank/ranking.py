"""Partial ranking constraints, the large-margin objective, and training.

For each image the candidates are split by iou_label into a positive set P
(the k best) and a negative set Q (the lowest-ranked candidates, capped at
min(n - k, 2k)). The model is a homogeneous linear scorer w trained so that
every positive outscores every negative; the margin form asks for scores of
at least +1 on P and at most -1 on Q, and the soft objective charges each
image a single slack equal to its worst margin violation:

    J(w) = 0.5 * ||w||^2 + C * sum_j max(0, 1 - min_p s_p, 1 + max_q s_q)

Hard margin is the same problem in the limit of large C (C = 1e6 in
practice), not a separate mode; every trained partial model carries a report
of its residual constraint violations. A per-constraint slack variant
(summing every hinge instead of taking the per-image maximum) is available
behind a config flag for comparison runs. Training is plain deterministic
subgradient descent (the 1-slack objective of Joachims, "Training Linear SVMs
in Linear Time", KDD 2006) and is bit-reproducible for a fixed dataset and
config.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import DataError, Dataset, ImageRecord, atomic_write_text, dataset_digest, rank_by_label
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
class TrainingConfig:
    """Solver settings.

    The step size decays as eta_t = eta0 / (1 + step_decay * t) over global
    steps; eta0 defaults to the number of training images, which with the
    default decay of 1 gives the classic eta_t ~ N/t schedule for an
    objective whose quadratic term has strong convexity 1.
    """

    k: int = 20
    C: float = 1.0
    epochs: int = 200
    eta0: float | None = None
    step_decay: float = 1.0
    convergence_tol: float = 1e-6
    per_image_slack: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DataError("k must be at least 1")
        if self.C <= 0:
            raise DataError("C must be positive")
        if self.epochs < 1:
            raise DataError("epochs must be at least 1")
        if self.eta0 is not None and self.eta0 <= 0:
            raise DataError("eta0 must be positive when given")
        if self.step_decay < 0:
            raise DataError("step_decay must be non-negative")
        if self.convergence_tol < 0:
            raise DataError("convergence_tol must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainingConfig":
        """Config from a model file; unknown keys are dropped.

        Older files may say "mode": "hard", which trained with C = hard_mode_C
        (default 1e6); that C is what they report.
        """
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        if obj.get("mode") == "hard":
            known["C"] = obj.get("hard_mode_C", 1e6)
        return cls(**known)


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


def build_full_constraints(record: ImageRecord) -> list[tuple[int, int]]:
    """Every ordered pair (better, worse) under the label ranking."""
    order = rank_by_label(record)
    n = len(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]


def constraint_count(n: int, k: int) -> tuple[int, int]:
    """(partial, full) constraint counts for one image: k(n-k) and n(n-1)/2."""
    if k < 1 or k >= n:
        raise DataError(f"need 1 <= k < n, got k={k}, n={n}")
    return k * (n - k), n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Objective


@dataclass(eq=False)
class _Compiled:
    """P and Q feature rows of every image, stacked, with each image's start row."""

    pos_stack: np.ndarray
    neg_stack: np.ndarray
    pos_starts: np.ndarray
    neg_starts: np.ndarray
    dim: int

    def segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-image (P, Q) feature blocks as views of the stacks."""
        pos = np.split(self.pos_stack, self.pos_starts[1:])
        neg = np.split(self.neg_stack, self.neg_starts[1:])
        return list(zip(pos, neg))


def _compile(dataset: Dataset, partitions: list[ConstraintPartition]) -> _Compiled:
    if len(partitions) != len(dataset.records):
        raise DataError("one partition per record is required")
    pos, neg = [], []
    for rec, part in zip(dataset.records, partitions):
        feats = rec.features_matrix()
        indices = set(range(rec.num_candidates))
        for idx in part.positives + part.negatives:
            if idx not in indices:
                raise DataError(f"{rec.image_id}: partition index {idx} out of range")
        pos.append(feats[list(part.positives)])
        neg.append(feats[list(part.negatives)])
    dims = {p.shape[1] for p in pos} | {q.shape[1] for q in neg}
    if len(dims) != 1:
        raise DataError(f"inconsistent feature dimensions: {sorted(dims)}")
    dim = dims.pop()
    pos_starts = np.cumsum([0] + [p.shape[0] for p in pos[:-1]])
    neg_starts = np.cumsum([0] + [q.shape[0] for q in neg[:-1]])
    return _Compiled(
        pos_stack=np.concatenate(pos, axis=0),
        neg_stack=np.concatenate(neg, axis=0),
        pos_starts=pos_starts,
        neg_starts=neg_starts,
        dim=dim,
    )


def _objective_compiled(w: np.ndarray, compiled: _Compiled, C: float, per_image_slack: bool) -> float:
    sp = compiled.pos_stack @ w
    sq = compiled.neg_stack @ w
    if per_image_slack:
        worst_pos = 1.0 - np.minimum.reduceat(sp, compiled.pos_starts)
        worst_neg = 1.0 + np.maximum.reduceat(sq, compiled.neg_starts)
        slack = np.maximum(0.0, np.maximum(worst_pos, worst_neg))
        hinge_total = float(np.sum(slack))
    else:
        hinge_total = float(np.sum(np.maximum(0.0, 1.0 - sp)) + np.sum(np.maximum(0.0, 1.0 + sq)))
    return 0.5 * float(w @ w) + C * hinge_total


def objective(
    w: np.ndarray,
    dataset: Dataset,
    partitions: list[ConstraintPartition],
    config: TrainingConfig,
) -> float:
    """Value of the regularized soft-margin objective at w."""
    w = np.asarray(w, dtype=np.float64)
    compiled = _compile(dataset, partitions)
    if w.shape != (compiled.dim,):
        raise DataError(f"weight dimension {w.shape} does not match features ({compiled.dim},)")
    return _objective_compiled(w, compiled, config.C, config.per_image_slack)


def _violation_summary(w: np.ndarray, compiled: _Compiled) -> dict:
    """Residual constraint violations at w.

    rank_violations counts (p, q) pairs where the positive fails to strictly
    outscore the negative; hinge_violations counts margin constraints
    (score >= +1 on P, <= -1 on Q) that are not met.
    """
    rank_violations = 0
    hinge_violations = 0
    max_residual = 0.0
    for p_feats, q_feats in compiled.segments():
        sp = p_feats @ w
        sq = q_feats @ w
        rank_violations += int(np.sum(sp[:, None] <= sq[None, :]))
        hinge_violations += int(np.sum(sp < 1.0)) + int(np.sum(sq > -1.0))
        residual = max(float(np.max(1.0 - sp)), float(np.max(1.0 + sq)), 0.0)
        max_residual = max(max_residual, residual)
    return {
        "rank_violations": rank_violations,
        "hinge_violations": hinge_violations,
        "max_hinge_residual": max_residual,
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
            raise NumericError("model weights are not finite")
        object.__setattr__(self, "weights", w)


def _provenance(dataset: Dataset, trainer: str) -> dict:
    return {
        "dataset_digest": dataset_digest(dataset),
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "trainer": trainer,
    }


def _descend(
    dataset: Dataset,
    config: TrainingConfig,
    segments: list,
    kind: str,
    compiled_objective,
    trainer: str,
) -> tuple[np.ndarray, float, list[float]]:
    """Shared solver loop.

    segments holds per-image constraint data: (P, Q) feature pairs for the
    partial model ("max" steps on the single most-violated constraint, "sum"
    on every violated hinge), or a difference matrix for the pairwise
    baseline ("pairs", most-violated pair). Each step moves along the
    subgradient w/N + C * g with the decaying step size. The best iterate by
    objective value (the zero start included) is returned together with the
    best-so-far per-epoch objective history. A convergence_tol of zero
    disables early stopping.
    """
    num_images = len(dataset.records)
    if num_images == 0:
        raise DataError("cannot train on an empty dataset")
    dim = dataset.feature_dim
    if dim is None:
        raise DataError("dataset has no featurized candidates")
    C = config.C
    eta0 = config.eta0 if config.eta0 is not None else float(num_images)
    decay = config.step_decay

    w = np.zeros(dim, dtype=np.float64)
    best_w = w.copy()
    best_obj = compiled_objective(w)
    history: list[float] = []
    stall = 0
    t = 0
    for epoch in range(config.epochs):
        for seg in segments:
            t += 1
            eta = eta0 / (1.0 + decay * t)
            if kind == "pairs":
                w *= 1.0 - eta / num_images
                if seg.shape[0]:
                    margins = seg @ w
                    i = int(np.argmin(margins))
                    if margins[i] < 1.0:
                        w += (eta * C) * seg[i]
                continue
            p_feats, q_feats = seg
            sp = p_feats @ w
            sq = q_feats @ w
            if kind == "max":
                # Ties prefer the positive side, then the lowest rank index.
                ip = int(np.argmin(sp))
                iq = int(np.argmax(sq))
                worst_pos = 1.0 - sp[ip]
                worst_neg = 1.0 + sq[iq]
                w *= 1.0 - eta / num_images
                if worst_pos > 0.0 or worst_neg > 0.0:
                    if worst_pos >= worst_neg:
                        w += (eta * C) * p_feats[ip]
                    else:
                        w -= (eta * C) * q_feats[iq]
            else:  # "sum": per-constraint slack, every violated hinge contributes
                viol_p = sp < 1.0
                viol_q = sq > -1.0
                w *= 1.0 - eta / num_images
                if np.any(viol_p):
                    w += (eta * C) * np.sum(p_feats[viol_p], axis=0)
                if np.any(viol_q):
                    w -= (eta * C) * np.sum(q_feats[viol_q], axis=0)
        epoch_obj = compiled_objective(w)
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


def train_soft_margin(
    dataset: Dataset,
    config: TrainingConfig,
    hog_config: HogConfig | None = None,
) -> TrainedModel:
    """Train the partial ranking model by deterministic subgradient descent.

    Images are visited in dataset order each epoch; per image the single most
    violated margin constraint (ties prefer the positive side, then the
    lowest rank index) drives the step. The returned model carries a report
    of the residual constraint violations at its weights; with a large C
    (1e6) this is the hard-margin feasibility check. The per-epoch objective
    history records the best value seen so far and is therefore
    non-increasing, and final_objective never exceeds the zero-weight
    objective C * num_images.
    """
    partitions = [build_partial_constraints(rec, config) for rec in dataset.records]
    compiled = _compile(dataset, partitions)
    kind = "max" if config.per_image_slack else "sum"

    def obj(w: np.ndarray) -> float:
        return _objective_compiled(w, compiled, config.C, config.per_image_slack)

    best_w, best_obj, history = _descend(dataset, config, compiled.segments(), kind, obj, "partial")
    return TrainedModel(
        weights=best_w,
        feature_dim=compiled.dim,
        training_config=config,
        final_objective=best_obj,
        hog_config=hog_config,
        provenance=_provenance(dataset, "partial"),
        violation_report=_violation_summary(best_w, compiled),
        objective_history=tuple(history),
    )


def train_full_rank_baseline(
    dataset: Dataset,
    config: TrainingConfig,
    hog_config: HogConfig | None = None,
) -> TrainedModel:
    """Train the all-pairs baseline with the same solver machinery.

    The objective sums one hinge max(0, 1 - w . (x_p - x_q)) per ordered pair
    over every pair of candidates, n(n-1)/2 per image. Images with a single
    candidate contribute no pairs and leave the weights untouched.
    """
    diffs: list[np.ndarray] = []
    for rec in dataset.records:
        feats = rec.features_matrix()
        pairs = build_full_constraints(rec)
        if pairs:
            p_idx = [p for p, _ in pairs]
            q_idx = [q for _, q in pairs]
            diffs.append(feats[p_idx] - feats[q_idx])
        else:
            dim = feats.shape[1] if feats.size else (dataset.feature_dim or 0)
            diffs.append(np.zeros((0, dim), dtype=np.float64))
    if dataset.feature_dim is None:
        raise DataError("dataset has no featurized candidates")
    all_diffs = [d for d in diffs if d.shape[0]]
    stack = np.concatenate(all_diffs, axis=0) if all_diffs else np.zeros((0, dataset.feature_dim))

    def obj(w: np.ndarray) -> float:
        if stack.shape[0]:
            hinge = np.maximum(0.0, 1.0 - stack @ w)
            total = float(np.sum(hinge))
        else:
            total = 0.0
        return 0.5 * float(w @ w) + config.C * total

    best_w, best_obj, history = _descend(dataset, config, diffs, "pairs", obj, "full-rank")
    return TrainedModel(
        weights=best_w,
        feature_dim=dataset.feature_dim,
        training_config=config,
        final_objective=best_obj,
        hog_config=hog_config,
        provenance=_provenance(dataset, "full_rank_baseline"),
        objective_history=tuple(history),
    )


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


def model_from_dict(obj: dict) -> TrainedModel:
    try:
        weights = np.asarray(obj["weights"], dtype=np.float64)
        feature_dim = int(obj["feature_dim"])
        config = TrainingConfig.from_dict(obj["config"])
        final_objective = float(obj["final_objective"])
        history = tuple(float(v) for v in obj.get("objective_history", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model file: {exc}") from exc
    hog_config = HogConfig.from_dict(obj["hog_config"]) if obj.get("hog_config") else None
    return TrainedModel(
        weights=weights,
        feature_dim=feature_dim,
        training_config=config,
        final_objective=final_objective,
        hog_config=hog_config,
        provenance=dict(obj.get("provenance", {})),
        violation_report=obj.get("violation_report"),
        objective_history=history,
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2, allow_nan=False) + "\n")


def load_model(path: str | Path) -> TrainedModel:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid model JSON ({exc.msg})") from exc
    return model_from_dict(obj)
