"""Recall-style quality metrics over ranked candidate lists.

Detection rate at (threshold, budget) is the percentage of groundtruth
objects whose best overlap within the first m ranked candidates exceeds the
threshold (strictly by default). ABO is the mean best overlap per class, and
MABO the unweighted mean of ABO over the classes present. No matching or
suppression is performed: one candidate may cover several objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (Config, DataError, Dataset, GroundTruthObject, ImageRecord, box_array, dataset_digest, iou_matrix,
                   json_field, json_value)
from .core import _as_float, _as_int


@dataclass(frozen=True)
class EvalConfig(Config):
    iou_thresholds: tuple[float, ...] = (0.5, 0.7, 0.9)
    proposal_budgets: tuple[int, ...] = (1, 10, 50, 100, 200, 500, 800, 1000)
    strict: bool = True

    def __post_init__(self) -> None:
        thresholds, budgets = (json_value(getattr(self, k), list, k) for k in ("iou_thresholds", "proposal_budgets"))
        object.__setattr__(self, "iou_thresholds", tuple(_as_float(d, "IoU threshold") for d in thresholds))
        object.__setattr__(self, "proposal_budgets", tuple(_as_int(m, "proposal budget") for m in budgets))
        if not self.iou_thresholds or not self.proposal_budgets:
            raise DataError("thresholds and budgets must be non-empty")
        for d in self.iou_thresholds:
            if not 0.0 < d <= 1.0:
                raise DataError(f"IoU threshold must lie in (0, 1], got {d}")
        if len(set(self.iou_thresholds)) != len(self.iou_thresholds):
            raise DataError("IoU thresholds must be distinct")
        for lo, hi in zip(self.proposal_budgets, self.proposal_budgets[1:]):
            if hi <= lo:
                raise DataError("proposal budgets must be strictly increasing")
        if self.proposal_budgets[0] < 1:
            raise DataError("proposal budgets must be positive")
        if not isinstance(self.strict, bool):
            raise DataError(f"strict must be true or false, got {self.strict!r}")


def _check_ranking(record: ImageRecord, ranking: Sequence[int]) -> list[int]:
    order = [int(i) for i in ranking]
    if sorted(order) != list(range(record.num_candidates)):
        raise DataError(
            f"{record.image_id}: ranking is not a permutation of "
            f"0..{record.num_candidates - 1}"
        )
    return order


def _rankings_for(dataset: Dataset, rankings: Mapping[str, Sequence[int]]) -> list[list[int]]:
    out = []
    for rec in dataset.records:
        if rec.image_id not in rankings:
            raise DataError(f"no ranking supplied for image {rec.image_id}")
        out.append(_check_ranking(rec, rankings[rec.image_id]))
    return out


def identity_rankings(dataset: Dataset) -> dict[str, list[int]]:
    """Rankings that keep each record's candidate order as-is."""
    return {rec.image_id: list(range(rec.num_candidates)) for rec in dataset.records}


def _prefix_best(
    gts: Sequence[GroundTruthObject], record: ImageRecord, order: list[int], budgets: Sequence[int]
) -> np.ndarray:
    """The metrics kernel: each object's best overlap within the first m ranked candidates.

    Returns a (len(gts), len(budgets)) array. The leading zero column is the
    empty prefix, so an image without candidates scores 0.0.
    """
    if min(budgets) < 1:
        raise DataError(f"budget must be at least 1, got {min(budgets)}")
    overlaps = iou_matrix(box_array(g.box for g in gts), record.candidates.boxes)
    running = np.maximum.accumulate(np.hstack([np.zeros((len(gts), 1)), overlaps[:, order]]), axis=1)
    return running[:, [min(m, len(order)) for m in budgets]]


def _object_overlaps(
    dataset: Dataset, rankings: Mapping[str, Sequence[int]], budgets: Sequence[int], undefined: str
) -> tuple[list[str], np.ndarray]:
    """Class label and _prefix_best row of every groundtruth object, in dataset order."""
    orders = _rankings_for(dataset, rankings)
    classes = [gt.class_label for rec in dataset.records for gt in rec.groundtruth]
    rows = [_prefix_best(rec.groundtruth, rec, order, budgets) for rec, order in zip(dataset.records, orders)]
    if not classes:
        raise DataError(f"{undefined}: dataset has no groundtruth objects")
    return classes, np.concatenate(rows)


def _covered_percent(best: np.ndarray, delta: float, strict: bool) -> float:
    covered = int(np.count_nonzero(best > delta if strict else best >= delta))
    return 100.0 * covered / len(best)


def _abo_mabo(classes: Sequence[str], best: np.ndarray) -> tuple[dict[str, float], float]:
    """Per-class mean of best overlaps (summed in dataset order, classes sorted) and their mean."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for cls, value in zip(classes, best.tolist()):
        sums[cls] = sums.get(cls, 0.0) + value
        counts[cls] = counts.get(cls, 0) + 1
    abo = {cls: sums[cls] / counts[cls] for cls in sorted(counts)}
    return abo, sum(abo.values()) / len(abo)


def detection_rate(
    dataset: Dataset,
    rankings: Mapping[str, Sequence[int]],
    delta: float,
    m: int,
    strict: bool = True,
) -> float:
    """Percentage of groundtruth objects covered within the first m candidates."""
    classes, best = _object_overlaps(dataset, rankings, (m,), "detection rate is undefined")
    return _covered_percent(best[:, 0], delta, strict)


def mabo(
    dataset: Dataset,
    rankings: Mapping[str, Sequence[int]],
    m: int,
) -> tuple[dict[str, float], float]:
    """Per-class average best overlap and its unweighted mean over classes."""
    classes, best = _object_overlaps(dataset, rankings, (m,), "MABO is undefined")
    return _abo_mabo(classes, best[:, 0])


@dataclass(frozen=True, eq=False)
class EvalReport:
    """All configured metric values for one ranking source."""

    dr: dict
    abo: dict
    mabo: dict
    counts: dict
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dr": [
                {"delta": d, "budget": m, "value": v} for (d, m), v in sorted(self.dr.items())
            ],
            "abo": [
                {"class": c, "budget": m, "value": v} for (c, m), v in sorted(self.abo.items())
            ],
            "mabo": [{"budget": m, "value": v} for m, v in sorted(self.mabo.items())],
            "counts": dict(self.counts),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, obj) -> "EvalReport":
        json_value(obj, dict, "sources entry")

        def entries(key: str) -> list[dict]:
            return [json_value(e, dict, f"{key} entry") for e in json_field(obj, key, list, ())]

        def budget(e) -> int:
            return _as_int(json_field(e, "budget"), "budget")

        def value(e) -> float:
            return _as_float(json_field(e, "value"), "value")

        return cls(
            dr={(_as_float(json_field(e, "delta"), "delta"), budget(e)): value(e) for e in entries("dr")},
            abo={(json_field(e, "class", str), budget(e)): value(e) for e in entries("abo")},
            mabo={budget(e): value(e) for e in entries("mabo")},
            counts={k: _as_int(v, f"count of {k}") for k, v in json_field(obj, "counts", dict, {}).items()},
            metadata=dict(json_field(obj, "metadata", dict, {})),
        )


def evaluate(
    dataset: Dataset,
    rankings: Mapping[str, Sequence[int]],
    config: EvalConfig,
    label: str = "ranking",
) -> EvalReport:
    """Detection rate and (M)ABO at every configured threshold and budget.

    One _prefix_best pass serves every (threshold, budget) pair, with the
    same arithmetic as the single-point metrics.
    """
    budgets = config.proposal_budgets
    classes, best = _object_overlaps(dataset, rankings, budgets, "metrics are undefined")
    dr = {
        (d, m): _covered_percent(best[:, j], d, config.strict)
        for d in config.iou_thresholds
        for j, m in enumerate(budgets)
    }
    per_budget = {m: _abo_mabo(classes, best[:, j]) for j, m in enumerate(budgets)}
    abo = {(cls, m): value for m, (per_class, _) in per_budget.items() for cls, value in per_class.items()}
    mabo_values = {m: mean for m, (_, mean) in per_budget.items()}
    counts = {cls: classes.count(cls) for cls in sorted(set(classes))}
    return EvalReport(
        dr=dr,
        abo=abo,
        mabo=mabo_values,
        counts=counts,
        metadata={"source": label},
    )


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Two ranking sources evaluated side by side, with rendered tables."""

    a: EvalReport
    b: EvalReport
    config: EvalConfig
    text: str
    csv: str

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "sources": [self.a.to_dict(), self.b.to_dict()]}


def report_from_dict(obj) -> tuple[EvalConfig, list[EvalReport]]:
    """The config and sources of a saved report, as ComparisonReport.to_dict
    writes it; each source must hold every value its config lists."""
    config = EvalConfig.from_dict(json_field(json_value(obj, dict, "report"), "config"))
    reports = [EvalReport.from_dict(entry) for entry in json_field(obj, "sources", list)]
    if not reports:
        raise DataError("sources must not be empty")
    for i, rep in enumerate(reports):
        missing = [f"DR at IoU {d:g}, budget {m}" for d in config.iou_thresholds
                   for m in config.proposal_budgets if (d, m) not in rep.dr]
        missing += [f"MABO at budget {m}" for m in config.proposal_budgets if m not in rep.mabo]
        if missing:
            raise DataError(f"source {i} has no {missing[0]}, which its config lists")
    return config, reports


def _labels(reports: Sequence[EvalReport]) -> list[str]:
    """Each source's label in both tables: its metadata's source, else ranking-<i>."""
    return [str(r.metadata.get("source", f"ranking-{i}")) for i, r in enumerate(reports)]


def render_text(reports: Sequence[EvalReport], config: EvalConfig) -> str:
    """Aligned tables: one detection-rate table per threshold, then MABO."""
    labels = _labels(reports)
    name_w = max(len("source"), *(len(lb) for lb in labels))
    col_w = max(8, *(len(str(m)) for m in config.proposal_budgets))
    header = "source".ljust(name_w) + "".join(str(m).rjust(col_w) for m in config.proposal_budgets)
    lines: list[str] = []
    for d in config.iou_thresholds:
        op = ">" if config.strict else ">="
        lines.append(f"Detection rate (%) vs proposal budget, IoU {op} {d:g}")
        lines.append(header)
        for rep, lb in zip(reports, labels):
            row = lb.ljust(name_w)
            row += "".join(f"{rep.dr[(d, m)]:.2f}".rjust(col_w) for m in config.proposal_budgets)
            lines.append(row)
        lines.append("")
    lines.append("Mean average best overlap (MABO) vs proposal budget")
    lines.append(header)
    for rep, lb in zip(reports, labels):
        row = lb.ljust(name_w)
        row += "".join(f"{rep.mabo[m]:.4f}".rjust(col_w) for m in config.proposal_budgets)
        lines.append(row)
    lines.append("")
    return "\n".join(lines)


def render_csv(reports: Sequence[EvalReport], config: EvalConfig) -> str:
    lines = ["metric,delta,budget,source,value"]
    for rep, label in zip(reports, _labels(reports)):
        for d in config.iou_thresholds:
            for m in config.proposal_budgets:
                lines.append(f"dr,{d:g},{m},{label},{rep.dr[(d, m)]:.2f}")
        for m in config.proposal_budgets:
            lines.append(f"mabo,,{m},{label},{rep.mabo[m]:.4f}")
    return "\n".join(lines) + "\n"


def report(
    dataset: Dataset,
    rankings_a: Mapping[str, Sequence[int]],
    rankings_b: Mapping[str, Sequence[int]],
    config: EvalConfig,
    label_a: str = "source-order",
    label_b: str = "reranked",
) -> ComparisonReport:
    """Evaluate two ranking sources over one dataset and render the tables.

    Both sources' metadata name the dataset they describe: by its
    source_sha256 when it was read from a file, else by its dataset_digest.
    """
    source = dataset.source_sha256
    name = {"source_sha256": source} if source else {"dataset_digest": dataset_digest(dataset)}
    rep_a, rep_b = pair = tuple(
        replace(rep, metadata={**rep.metadata, **name})
        for rep in (evaluate(dataset, rankings_a, config, label_a), evaluate(dataset, rankings_b, config, label_b))
    )
    return ComparisonReport(
        a=rep_a,
        b=rep_b,
        config=config,
        text=render_text(pair, config),
        csv=render_csv(pair, config),
    )
