"""Bounding-box geometry, IoU labeling, and the JSON Lines dataset model.

Boxes are axis-aligned real rectangles in pixel coordinates with the
(x_max, y_max) corner exclusive, so the continuous area of an integer box
equals the size of its half-open pixel set.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np


class DataError(ValueError):
    """Raised when a record, file, or dataset violates an input contract."""


T = TypeVar("T")


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Declared field type -> (test of a value, name in messages). No number kind
# takes a bool, so a JSON true cannot stand for a count or a weight.
_FIELD_KINDS = {
    "int": (_integer, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, int]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_integer, v)),
        "a list of two integers",
    ),
}


def check_field_types(obj) -> None:
    """Raise a DataError naming the first field of a config dataclass whose
    value does not match its declared int, float, bool, str or
    tuple[int, int] type. A pair is stored as a tuple of ints.
    """
    for f in fields(obj):
        test, kind = _FIELD_KINDS[getattr(f.type, "__name__", f.type)]
        value = getattr(obj, f.name)
        if not test(value):
            raise DataError(f"{type(obj).__name__}.{f.name} must be {kind}, got {value!r}")
        if isinstance(value, (list, tuple)):
            object.__setattr__(obj, f.name, tuple(map(int, value)))


def _as_int(value, what: str) -> int:
    """value as an int: any integral number or an integral float, never a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DataError(f"{what} must be an integer, got {value!r}")


def _as_float(value, what: str) -> float:
    """value as a float: any real number, never a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise DataError(f"{what} must be a real number, got {value!r}")


def decode_json(raw: bytes | str, build: Callable[[object], T], where: str, what: str = "") -> T:
    """build() applied to one JSON document: a whole file or one dataset line.

    Every way the input can be malformed (bad UTF-8, bad JSON, nesting too deep
    for the parser, a value build() rejects) is a DataError whose message
    starts with where, a path or "line N". what names the kind of a whole file
    in the message ("model" gives "invalid model JSON" and "invalid model file").
    """
    kind = f"{what} " if what else ""
    try:
        obj = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{where}: invalid {kind}JSON ({getattr(exc, 'msg', exc)})") from exc
    try:
        return build(obj)
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:  # DataError is a ValueError
        context = f"{where}: invalid {what} file" if what else where
        raise DataError(f"{context}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle; must have strictly positive width and height."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        try:
            coords = tuple(float(v) for v in (self.x_min, self.y_min, self.x_max, self.y_max))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError("box has a non-numeric coordinate") from exc
        if not all(math.isfinite(v) for v in coords):
            raise DataError(f"box has non-finite coordinates: {coords}")
        if coords[2] <= coords[0] or coords[3] <= coords[1]:
            raise DataError(f"box has non-positive extent: {coords}")
        for name, value in zip(("x_min", "y_min", "x_max", "y_max"), coords):
            object.__setattr__(self, name, value)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A, B) IoU of (A, 4) and (B, 4) box arrays; 0.0 for disjoint or edge-touching pairs."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """Boxes stacked as an (n, 4) float array, (0, 4) when there are none."""
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


def best_iou(boxes: np.ndarray, groundtruth: Iterable[GroundTruthObject]) -> np.ndarray:
    """(n,) best IoU of each of an (n, 4) box array against the groundtruth; 0.0 with none."""
    return iou_matrix(boxes, box_array(g.box for g in groundtruth)).max(axis=1, initial=0.0)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when they do not overlap."""
    return float(iou_matrix(a.as_list(), b.as_list())[0, 0])


@dataclass(frozen=True)
class GroundTruthObject:
    class_label: str
    box: Box

    def __post_init__(self) -> None:
        if not self.class_label:
            raise DataError("class label must be non-empty")


@dataclass(frozen=True, eq=False, slots=True)
class Candidate:
    """One proposal box, optionally carrying its overlap label and features.

    source_index, when present, records the position the candidate held in
    the dataset it was re-ranked from.
    """

    box: Box
    iou_label: float | None = None
    features: np.ndarray | None = None
    source_index: int | None = None

    def __post_init__(self) -> None:
        if self.iou_label is not None:
            try:
                label = float(self.iou_label)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"iou_label must be a number, got {self.iou_label!r}") from exc
            if not math.isfinite(label) or not 0.0 <= label <= 1.0:
                raise DataError(f"iou_label must lie in [0, 1], got {label!r}")
            object.__setattr__(self, "iou_label", label)
        if self.features is not None:
            try:
                feats = np.asarray(self.features, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError("features must be a list of numbers") from exc
            if feats.ndim != 1:
                raise DataError(f"features must be a flat vector, got shape {feats.shape}")
            if not len(feats):
                raise DataError("features must not be empty")
            if not np.all(np.isfinite(feats)):
                raise DataError("features contain non-finite values")
            object.__setattr__(self, "features", feats)
        if self.source_index is not None:
            index = _as_int(self.source_index, "source_index")
            if index < 0:
                raise DataError(f"source_index must be non-negative, got {index}")
            object.__setattr__(self, "source_index", index)


@dataclass(frozen=True, eq=False, slots=True)
class Candidates(Sequence):
    """A record's candidates as read-only columns, built into Candidate rows
    on demand: boxes (n, 4), labels (n,), features (n, d) and source_index,
    a tuple of ints. A column that no candidate has is None, and so is every
    column but boxes when there are no candidates. Every table checks its
    columns as arrays against the Box and Candidate rules, a DataError if
    they fail. A NaN label or feature row marks a candidate without one;
    the reader, record_from_columns and replace_column reject a NaN value.
    """

    boxes: np.ndarray
    labels: np.ndarray | None = None
    features: np.ndarray | None = None
    source_index: tuple[int | None, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.boxes)
        for name in ("boxes", "labels", "features", "source_index"):
            values = getattr(self, name) if n else np.zeros((0, 4)) if name == "boxes" else None
            object.__setattr__(self, name, _checked_column(name, values, n))

    @classmethod
    def from_rows(cls, image_id: str, rows: Iterable[Candidate]) -> Candidates:
        """The table of Candidate rows; features of a second dimension are a DataError."""
        rows = tuple(rows)
        featured = [(i, c.features) for i, c in enumerate(rows) if c.features is not None]
        dim = len(featured[0][1]) if featured else 0
        features = np.full((len(rows), dim), np.nan)
        for i, feats in featured:
            if len(feats) != dim:
                raise DataError(f"{image_id}: candidate {i} has feature dimension {len(feats)}, expected {dim}")
            features[i] = feats
        labels = _column([c.iou_label for c in rows])
        return cls(
            box_array(c.box for c in rows),
            None if labels is None else np.array(labels, dtype=np.float64),  # None becomes NaN
            features if featured else None,
            _column([c.source_index for c in rows]),
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int) -> Candidate:
        """Candidate i; its features are a read-only row of the feature matrix."""
        label = None if self.labels is None else float(self.labels[i])
        feats = None if self.features is None else self.features[i]
        return Candidate(
            Box(*self.boxes[i].tolist()),
            None if label is None or math.isnan(label) else label,
            None if feats is None or math.isnan(feats[0]) else feats,
            None if self.source_index is None else self.source_index[i],
        )

    def gaps(self, name: str) -> np.ndarray:
        """(n,) mask of the candidates without a value in the labels or features column."""
        column = getattr(self, name)
        if column is None:
            return np.ones(len(self), dtype=bool)
        return np.isnan(column if column.ndim == 1 else column[:, 0])


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """All groundtruth objects and candidate boxes of a single image.

    The one owner of the record-level rules: a non-empty image_id, a positive
    size under the decoder's integer rule (8.0 becomes 8), every box inside
    [0, width] x [0, height] (rejected rather than clamped) and one feature
    dimension. candidates may be given as Candidate rows, which are
    converted to a Candidates table once.
    """

    image_id: str
    width: int
    height: int
    groundtruth: tuple[GroundTruthObject, ...] = ()
    candidates: Candidates = ()

    def __post_init__(self) -> None:
        if not self.image_id:
            raise DataError("record has an empty image_id")
        for name in ("width", "height"):
            object.__setattr__(self, name, _as_int(getattr(self, name), f"{self.image_id}: {name}"))
        if self.width <= 0 or self.height <= 0:
            raise DataError(f"{self.image_id}: image size must be positive")
        object.__setattr__(self, "groundtruth", tuple(self.groundtruth))
        if not isinstance(self.candidates, Candidates):
            object.__setattr__(self, "candidates", Candidates.from_rows(self.image_id, self.candidates))
        boxes = np.concatenate([box_array(g.box for g in self.groundtruth), self.candidates.boxes])
        outside = (boxes[:, :2] < 0).any(axis=1) | (boxes[:, 2] > self.width) | (boxes[:, 3] > self.height)
        if outside.any():
            raise DataError(
                f"{self.image_id}: box {boxes[outside.argmax()].tolist()} lies outside the "
                f"{self.width}x{self.height} image"
            )

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def feature_dim(self) -> int | None:
        """Dimension shared by every candidate that carries features; None if none does."""
        features = self.candidates.features
        return None if features is None else features.shape[1]

    def _complete(self, name: str, what: str) -> np.ndarray | None:
        """The labels or features column; fails naming the first candidate without a value."""
        gaps = self.candidates.gaps(name)
        if gaps.any():
            raise DataError(f"{self.image_id}: candidate {int(gaps.argmax())} has no {what}")
        return getattr(self.candidates, name)

    def iou_labels(self) -> list[float]:
        """Labels of all candidates; fails if any candidate is unlabeled."""
        labels = self._complete("labels", "iou_label")
        return [] if labels is None else labels.tolist()

    def features_matrix(self) -> np.ndarray:
        """The record's read-only (n, d) feature matrix; fails if any candidate has no features."""
        features = self._complete("features", "features")
        return np.zeros((0, 0), dtype=np.float64) if features is None else features


def _join(by_id: dict, dim: int | None, record: ImageRecord) -> int | None:
    """Add record to by_id and return the feature dimension of the records so
    far; a repeated image_id or a second feature dimension is a DataError."""
    if record.image_id in by_id:
        raise DataError(f"duplicate image_id: {record.image_id}")
    by_id[record.image_id] = record
    if record.feature_dim is None:
        return dim
    if dim is not None and record.feature_dim != dim:
        raise DataError(
            f"{record.image_id}: candidates have feature dimension {record.feature_dim}, expected {dim}"
        )
    return record.feature_dim


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of image records with unique image ids.

    source_sha256 is the SHA-256 of the bytes read_dataset parsed it from,
    None for a dataset built in memory. Neither it nor the cached
    dataset_digest is a field, so a Dataset built from another one, by
    dataclasses.replace or from its records, starts without both.
    """

    records: tuple[ImageRecord, ...] = ()
    feature_dim: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        by_id: dict[str, ImageRecord] = {}
        dim = self.feature_dim
        for rec in self.records:
            dim = _join(by_id, dim, rec)
        if dim is not None and dim <= 0:
            raise DataError("feature_dim must be positive")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "feature_dim", dim)
        object.__setattr__(self, "source_sha256", None)
        object.__setattr__(self, "_digest", None)

    def __len__(self) -> int:
        return len(self.records)

    def get(self, image_id: str) -> ImageRecord:
        return self._by_id[image_id]


# ---------------------------------------------------------------------------
# Column-wise record building
#
# A record's candidate columns are checked as arrays against every rule that
# Box and Candidate enforce whenever they become a Candidates table;
# ImageRecord applies the record-level rules. record_from_columns builds
# columns that fail a check, or that are not a regular table of numbers,
# entry by entry through the types instead, so they fail with exactly the
# errors the types raise.


class _Irregular(DataError):
    """Candidate columns that the array checks do not pass."""


# Each float column's axes and what the Box and Candidate rules ask of it as
# one array. NaN, the mark of a candidate without a label or features, passes.
_COLUMN_RULES = {
    "boxes": (2, lambda c: c.shape[1] == 4 and np.isfinite(c).all() and (c[:, 2:] > c[:, :2]).all()),
    "labels": (1, lambda c: not ((c < 0.0) | (c > 1.0)).any()),
    "features": (2, lambda c: c.shape[1] > 0 and np.isnan(c[~np.isfinite(c).all(axis=1)]).all()),
}


def _checked_column(name: str, values, n: int):
    """values as the Candidates column of that name: a read-only (n, ...)
    float64 array, or for source_index a tuple of ints and None. Values that
    break the Box and Candidate rules, ragged, nested and non-numeric ones
    included, are _Irregular."""
    if values is None:
        return None
    valid = False
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if name == "source_index":  # Python ints, exact beyond 64 bits
            # A plain int is taken as it is; _as_int's ABC check costs about 1 us an entry.
            column = tuple(i if i is None or type(i) is int else _as_int(i, name) for i in values)
            valid = len(column) == n and all(i is None or i >= 0 for i in column)
        else:
            ndim, rule = _COLUMN_RULES[name]
            column = np.asarray(values)
            if column.dtype.kind in "biuf" and column.ndim == ndim and len(column) == n:
                column = column.astype(np.float64, copy=False).view()
                column.flags.writeable = False  # rows share the feature matrix, so a write would change the record
                valid = bool(rule(column))
    if not valid:
        raise _Irregular(f"candidate {name} column breaks the Box and Candidate rules")
    return column


def _gapless(table: Candidates, *names: str) -> Candidates:
    """table, or _Irregular if a caller's labels or features column among
    names has NaN: the table would read it as a candidate without a value,
    and the types reject it."""
    for name in names:
        if getattr(table, name) is not None and table.gaps(name).any():
            raise _Irregular(f"candidate {name} column has NaN")
    return table


def record_from_columns(
    image_id: str,
    width: int,
    height: int,
    groundtruth: Iterable[GroundTruthObject],
    boxes,
    labels=None,
    features=None,
    source_index=None,
) -> ImageRecord:
    """An ImageRecord whose candidates are given as columns.

    boxes holds n [x_min, y_min, x_max, y_max] rows; labels (n values),
    features (n vectors) and source_index (n values) are optional. Each is an
    array or a list of per-candidate values, and candidate i takes entry i of
    each. Checked as arrays, the columns are stored without a copy. Anything
    the types reject fails with their error, prefixed with the image and the
    candidate as in "<image_id>: candidate 3 ...".
    """
    groundtruth = tuple(groundtruth)
    try:
        table = _gapless(Candidates(boxes, labels, features, source_index), "labels", "features")
    except _Irregular:
        rows = boxes.tolist() if isinstance(boxes, np.ndarray) else boxes
        entries = zip(rows, *(repeat(None) if c is None else c for c in (labels, features, source_index)))
        table = _each(image_id, "candidate", entries, lambda entry: Candidate(_box_from_list(entry[0]), *entry[1:]))
    return ImageRecord(image_id, width, height, groundtruth, table)


def replace_column(record: ImageRecord, name: str, values) -> ImageRecord:
    """record with its candidates' labels or features column replaced by
    values, one per candidate; a DataError if they break the Box and
    Candidate rules or hold NaN."""
    return replace(record, candidates=_gapless(replace(record.candidates, **{name: values}), name))


def _column(values: list) -> list | None:
    """values, or None when every one of them is None."""
    return None if all(v is None for v in values) else values


def label_candidates(record: ImageRecord) -> ImageRecord:
    """Return a copy whose candidates carry their best IoU against the groundtruth.

    With several groundtruth objects the label is the maximum overlap over all
    of them; with none it is 0.0. Candidate order is preserved and existing
    labels are recomputed.
    """
    return replace_column(record, "labels", best_iou(record.candidates.boxes, record.groundtruth))


def label_dataset(dataset: Dataset) -> Dataset:
    """label_candidates applied to every record."""
    return Dataset(tuple(label_candidates(rec) for rec in dataset.records), dataset.feature_dim)


def rank_by_label(record: ImageRecord) -> list[int]:
    """Candidate indices ordered by iou_label descending; ties keep input order."""
    labels = record._complete("labels", "iou_label")
    return [] if labels is None else np.argsort(-labels, kind="stable").tolist()


# ---------------------------------------------------------------------------
# JSON Lines serialization
#
# One record per line. Readers ignore unknown fields; writers emit floats via
# repr so every value round-trips exactly.


def record_to_dict(record: ImageRecord) -> dict:
    obj: dict = {
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "groundtruth": [
            {"class": g.class_label, "box": g.box.as_list()} for g in record.groundtruth
        ],
    }
    cands = record.candidates
    entries = [{"box": box} for box in cands.boxes.tolist()]
    for key, name in (("iou_label", "labels"), ("features", "features")):
        column = getattr(cands, name)
        if column is not None:
            for entry, value, gap in zip(entries, column.tolist(), cands.gaps(name).tolist()):
                if not gap:
                    entry[key] = value
    for entry, index in zip(entries, cands.source_index or ()):
        if index is not None:
            entry["source_index"] = index
    obj["candidates"] = entries
    return obj


# The box column's entry for a candidate that is not an object with a "box".
_NO_BOX = object()


def _box_from_list(value) -> Box:
    if value is _NO_BOX:
        raise DataError("needs a 'box' field")
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise DataError("box must be a 4-element [x_min, y_min, x_max, y_max] list")
    return Box(*value)


def _groundtruth_from_dict(entry) -> GroundTruthObject:
    if not isinstance(entry, dict) or "class" not in entry or "box" not in entry:
        raise DataError("needs 'class' and 'box' fields")
    return GroundTruthObject(str(entry["class"]), _box_from_list(entry["box"]))


def _list_field(obj: dict, key: str) -> list:
    """A record's list field; [] when it is absent or null."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise DataError(f"{obj['image_id']}: {key} must be a list, got {value!r}")
    return value


def _each(image_id: str, kind: str, entries: Iterable, build: Callable[[object], T]) -> tuple[T, ...]:
    """build() of each entry; an error names the image and the entry."""
    built = []
    for i, entry in enumerate(entries):
        try:
            built.append(build(entry))
        except DataError as exc:
            raise DataError(f"{image_id}: {kind} {i} {exc}") from exc
    return tuple(built)


def record_from_dict(obj: dict) -> ImageRecord:
    """An ImageRecord from one decoded JSON line.

    Only the JSON shape is checked here. The candidates go to
    record_from_columns as columns, an entry that is not an object with a box
    as a marker in the box column. Errors of the types are prefixed with the
    image and the entry they came from.
    """
    if not isinstance(obj, dict):
        raise DataError("record is not a JSON object")
    for key in ("image_id", "width", "height"):
        if key not in obj:
            raise DataError(f"record is missing required field {key!r}")
    image_id = obj["image_id"]
    if not isinstance(image_id, str):
        raise DataError(f"image_id must be a string, got {image_id!r}")
    width = _as_int(obj["width"], f"{image_id}: width")
    height = _as_int(obj["height"], f"{image_id}: height")
    groundtruth = _each(image_id, "groundtruth", _list_field(obj, "groundtruth"), _groundtruth_from_dict)
    entries = [entry if isinstance(entry, dict) else {} for entry in _list_field(obj, "candidates")]
    boxes = [entry.get("box", _NO_BOX) for entry in entries]
    columns = (_column([entry.get(key) for entry in entries]) for key in ("iou_label", "features", "source_index"))
    return record_from_columns(image_id, width, height, groundtruth, boxes, *columns)


def dataset_to_lines(dataset: Dataset) -> list[str]:
    return [json.dumps(record_to_dict(rec), allow_nan=False) for rec in dataset.records]


def dataset_from_lines(lines: Iterable[bytes | str]) -> Dataset:
    """Dataset from JSON Lines, one record per line; blank lines are skipped.

    The checks that span records (unique image ids, one feature dimension)
    run as each line is read, so their errors name the line too.
    """
    records: list[ImageRecord] = []
    by_id: dict[str, ImageRecord] = {}
    dim = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        record = decode_json(line, record_from_dict, where)
        try:
            dim = _join(by_id, dim, record)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        records.append(record)
    return Dataset(tuple(records))


def _hashed(lines: Iterable[bytes], digest) -> Iterator[bytes]:
    """lines, each fed to digest as it passes."""
    for line in lines:
        digest.update(line)
        yield line


def read_dataset(path: str | Path) -> Dataset:
    """The dataset in a JSON Lines file, with the SHA-256 of the bytes it
    parsed as its source_sha256."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        dataset = dataset_from_lines(_hashed(fh, digest))
    object.__setattr__(dataset, "source_sha256", digest.hexdigest())
    return dataset


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path through a sibling .tmp file, so readers never see a
    partial file; a failed write removes the .tmp file and re-raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical JSON Lines of dataset, whose SHA-256 becomes its
    cached dataset_digest."""
    text = "".join(line + "\n" for line in dataset_to_lines(dataset))
    atomic_write_text(path, text)
    object.__setattr__(dataset, "_digest", hashlib.sha256(text.encode("utf-8")).hexdigest())


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 over the canonical JSON Lines serialization of the dataset.

    It is computed once per Dataset object, or taken from write_dataset of
    it; its records and their columns are read-only, so it cannot go stale.
    For every file write_dataset writes it equals the file's source_sha256
    when read back.
    """
    if dataset._digest is None:
        digest = hashlib.sha256()
        for line in dataset_to_lines(dataset):
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        object.__setattr__(dataset, "_digest", digest.hexdigest())
    return dataset._digest
