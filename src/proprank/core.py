"""Bounding-box geometry, IoU labeling, and the JSON Lines dataset model.

Boxes are axis-aligned real rectangles in pixel coordinates with the
(x_max, y_max) corner exclusive, so the continuous area of an integer box
equals the size of its half-open pixel set.

Beside each JSON Lines file it writes, write_dataset leaves a binary columns
file, from which read_dataset builds the dataset while the JSON Lines still
have the SHA-256 it records (see The columns file below). A dataset derived
from one read that way is written with the text of its unchanged values
copied from those JSON Lines (see Copying the source's text).

This module owns both kinds of lane, one per CPU in the process's affinity
mask. The HOG kernel's lanes are threads (see features): numpy releases the
GIL, so the caller and a shared pool of threads describe chunks side by
side. Encoding records as JSON lines is pure Python, which holds the GIL, so
the codec's lanes are processes: the records are cut into one contiguous
share per lane (never more lanes than records), the caller encodes share 0
and a forked child each other share, sending its lines back pickled through
a pipe. The lines, files and digests are those of one lane, and `taskset`
limits both lane counts. Decoding JSON Lines runs in the caller, line by
line: read_dataset parses them only when no columns file vouches for them.
The codec forks only on Linux and only for more than _FORK_MIN_VALUES
numbers at once. A thread may hold a lock across a fork, so it forks only
while every other thread is an idle HOG lane thread, and it joins those
first; the next HOG call starts them again. Beside any other thread it stays
in the caller.
The same gate (_lanes) and the same forking (_forked_shares) also let
ranking train an in-memory set on a forked lane while the caller digests it.
The lanes pay while the other CPUs are free; when the host keeps them busy,
a forked call can be slower than one lane.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import numbers
import os
import pickle
import signal
import sys
import threading
import zipfile
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np


class DataError(ValueError):
    """Raised when a record, file, or dataset violates an input contract."""


T = TypeVar("T")
R = TypeVar("R")


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Declared field type -> (test of a value, name in messages). No number kind
# takes a bool, so a JSON true cannot stand for a count or a weight.
_FIELD_KINDS = {
    "int": (_integer, "an integer"),
    "float": (_is_real, "a real number"),
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
    tuple[int, int] type. A real number is stored as a float, a pair as a tuple of ints.
    """
    for f in fields(obj):
        test, kind = _FIELD_KINDS[getattr(f.type, "__name__", f.type)]
        value, what = getattr(obj, f.name), f"{type(obj).__name__}.{f.name}"
        if not test(value):
            raise DataError(f"{what} must be {kind}, got {value!r}")
        if isinstance(value, (list, tuple)):
            object.__setattr__(obj, f.name, tuple(map(int, value)))
        elif kind == "a real number":  # an integer is finite, or beyond float range and refused
            object.__setattr__(obj, f.name, _as_float(value, what) if _integer(value) else float(value))


class Config:
    """Base of the frozen settings dataclasses, which owns their JSON form;
    key names the config as the files that carry it do."""

    key = "config"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj):
        """The config in a decoded JSON object; unknown keys are dropped, missing ones keep their defaults."""
        json_value(obj, dict, cls.key)
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


def _real(value) -> float:
    """value as a float if it is a real number (never parsed from a string,
    never a bool), else a TypeError."""
    # The type test first: the ABC check alone costs about 1 us.
    if type(value) is float or _is_real(value):
        return float(value)
    raise TypeError(f"not a real number: {value!r}")


def _as_int(value, what: str) -> int:
    """value as an int: any integral number or an integral float, never a bool."""
    if _integer(value):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DataError(f"{what} must be an integer, got {value!r}")


def _as_float(value, what: str) -> float:
    """value as a finite float: any real number, never a bool."""
    if not _is_real(value):
        raise DataError(f"{what} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        raise DataError(f"{what} must be finite, got an integer beyond float range") from None
    if not finite:
        raise DataError(f"{what} must be finite, got {value!r}")
    return float(value)


# The JSON kinds a field can be asked to have, by the Python type the decoder
# gives them; a tuple, built in code, passes as a list.
_JSON_KINDS = {dict: (dict, "a JSON object"), list: ((list, tuple), "a list"), str: (str, "a string")}
_REQUIRED = object()


def json_value(value, kind: type, what: str):
    """value if it is of kind (dict, list or str), else a DataError naming what."""
    types, name = _JSON_KINDS[kind]
    if not isinstance(value, types):
        raise DataError(f"{what} must be {name}, got {value!r}")
    return value


def json_field(obj: dict, key: str, kind: type | None = None, default=_REQUIRED):
    """obj[key], checked by json_value when kind is given. A field without a
    default must be present; with one, an absent or null field takes it."""
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise DataError(f"missing required field {key!r}")
    return value if kind is None else json_value(value, kind, key)


def read_json(path: str | Path, build: Callable[[object], T], what: str) -> tuple[T, str]:
    """build() of the JSON file at path, as decode_json gives it, and the
    SHA-256 of the bytes it decoded; the file is read once."""
    raw = Path(path).read_bytes()
    return decode_json(raw, build, str(path), what), hashlib.sha256(raw).hexdigest()


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
            coords = tuple(_real(v) for v in (self.x_min, self.y_min, self.x_max, self.y_max))
        except (TypeError, OverflowError) as exc:
            raise DataError("box has a non-numeric coordinate") from exc
        if not all(math.isfinite(v) for v in coords):
            raise DataError(f"box has non-finite coordinates: {coords}")
        if coords[2] <= coords[0] or coords[3] <= coords[1]:
            raise DataError(f"box has non-positive extent: {coords}")
        for name, value in zip(("x_min", "y_min", "x_max", "y_max"), coords):
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True)
class GroundTruthObject:
    class_label: str
    box: Box

    def __post_init__(self) -> None:
        if not json_value(self.class_label, str, "class"):
            raise DataError("class label must be non-empty")


_COLUMNS = ("boxes", "labels", "features", "source_index")


@dataclass(frozen=True, eq=False, slots=True)
class Candidates(Sequence):
    """A record's candidates as read-only columns: boxes (n, 4), labels (n,),
    features (n, d) and source_index, a tuple of ints. Each column but boxes
    is complete or absent: a value for every candidate or None, and None for
    all of them when there are no candidates. Every table checks its columns
    as arrays against the box and candidate rules, a DataError if they fail.
    table[i] is candidate i as a one-row table of read-only views of the
    columns (source_index a 1-tuple), so it is not checked again.
    """

    boxes: np.ndarray
    labels: np.ndarray | None = None
    features: np.ndarray | None = None
    source_index: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.boxes)
        for name in _COLUMNS:
            values = getattr(self, name) if n else np.zeros((0, 4)) if name == "boxes" else None
            object.__setattr__(self, name, _checked_column(name, values, n))

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int) -> Candidates:
        i = range(len(self.boxes))[i]  # an IndexError out of range; a negative i counts from the end
        row = object.__new__(Candidates)
        for name in _COLUMNS:
            column = getattr(self, name)
            object.__setattr__(row, name, None if column is None else column[i:i + 1])
        return row

    def __reduce__(self):
        # A table sent between processes is built, and so checked and made read-only, again.
        return Candidates, tuple(getattr(self, name) for name in _COLUMNS)


def _concatenated(image_id: str, tables: Iterable[Candidates]) -> Candidates:
    """One table of the rows of tables, in order. A column that some rows have
    and others lack, or features of a second dimension, are a DataError."""
    tables = [t for t in tables if len(t.boxes)] or [Candidates(np.zeros((0, 4)))]
    first_row = list(accumulate((len(t.boxes) for t in tables), initial=0))
    for name, what in (("labels", "iou_label"), ("features", "features"), ("source_index", "source_index")):
        present = [getattr(t, name) is not None for t in tables]
        if any(present) and not all(present):
            i, j = first_row[present.index(False)], first_row[present.index(True)]
            raise DataError(f"{image_id}: candidate {i} has no {what}, but candidate {j} has one")
    dims = [t.features.shape[1] for t in tables if t.features is not None]
    for k, dim in enumerate(dims):
        if dim != dims[0]:
            raise DataError(f"{image_id}: candidate {first_row[k]} has feature dimension {dim}, expected {dims[0]}")
    columns = ([getattr(t, name) for t in tables] for name in _COLUMNS)
    return Candidates(*(
        None if parts[0] is None else tuple(chain(*parts)) if isinstance(parts[0], tuple) else np.concatenate(parts)
        for parts in columns
    ))


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """All groundtruth objects and candidate boxes of a single image.

    The one owner of the record-level rules: a non-empty image_id, a positive
    size under the decoder's integer rule (8.0 becomes 8), every box inside
    [0, width] x [0, height] (rejected rather than clamped) and one feature
    dimension. candidates is a Candidates table, or an iterable of them,
    such as one-row tables, which are concatenated into one once.
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
            size = _as_int(getattr(self, name), f"{self.image_id}: {name}")
            _as_float(size, f"{self.image_id}: {name}")  # the float boxes are compared with it
            object.__setattr__(self, name, size)
        if self.width <= 0 or self.height <= 0:
            raise DataError(f"{self.image_id}: image size must be positive")
        object.__setattr__(self, "groundtruth", tuple(self.groundtruth))
        if not isinstance(self.candidates, Candidates):
            object.__setattr__(self, "candidates", _concatenated(self.image_id, self.candidates))
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
        """The candidates' feature dimension; None when they carry no features."""
        features = self.candidates.features
        return None if features is None else features.shape[1]

    def _complete(self, name: str, what: str) -> np.ndarray | None:
        """The labels or features column; fails if the record has candidates but not the column."""
        column = getattr(self.candidates, name)
        if column is None and len(self.candidates):
            raise DataError(f"{self.image_id}: candidate 0 has no {what}")
        return column

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
    None for a dataset built in memory. _source_path is the JSON Lines
    file when read_dataset built the dataset from the columns file beside
    it, else None: those lines are then the canonical text of its values,
    which write_dataset of a dataset derived from it may copy. None of the
    three, nor the cached dataset_digest, is a field, so a Dataset built
    from another one, by dataclasses.replace or from its records, starts
    without them.
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
        object.__setattr__(self, "_source_path", None)
        object.__setattr__(self, "_digest", None)

    def __len__(self) -> int:
        return len(self.records)

    def get(self, image_id: str) -> ImageRecord:
        return self._by_id[image_id]


# ---------------------------------------------------------------------------
# Column-wise record building
#
# A record's candidate columns are checked as arrays against every box and
# candidate rule whenever they become a Candidates table; ImageRecord applies
# the record-level rules. record_from_columns builds columns that fail a
# check, or that are not a regular table of numbers, entry by entry instead:
# each entry through Box and _candidate into a one-row table, and the record
# from those tables, so an error names the rule and the entry that broke it.


class _Irregular(DataError):
    """Candidate columns that the array checks do not pass."""


# Each float column's axes and what the box and candidate rules ask of it as
# one array. A NaN label fails both comparisons.
_COLUMN_RULES = {
    "boxes": (2, lambda c: c.shape[1] == 4 and _all(np.isfinite(c)) and _all(c[:, 2:] > c[:, :2])),
    "labels": (1, lambda c: _all((c >= 0.0) & (c <= 1.0))),
    "features": (2, lambda c: c.shape[1] > 0 and _all(np.isfinite(c))),
}


def _all(mask: np.ndarray) -> bool:
    """mask.all(), without the reduction's fixed cost of about 1 us."""
    return np.count_nonzero(mask) == mask.size


def _checked_column(name: str, values, n: int):
    """values as the Candidates column of that name: a read-only (n, ...)
    float64 array, or for source_index a tuple of ints. Values that
    break the box and candidate rules, ragged, nested and non-numeric ones
    included, are _Irregular."""
    if values is None:
        return None
    try:
        if name == "source_index":  # Python ints, exact beyond 64 bits
            # A plain int is taken as it is; _as_int's ABC check costs about 1 us an entry.
            column = tuple(i if type(i) is int else _as_int(i, name) for i in values)
            valid = len(column) == n and all(i >= 0 for i in column)
        else:
            ndim, rule = _COLUMN_RULES[name]
            # np.asarray reads a JSON true as 1, so a decoded list is scanned for bools first.
            entries = chain.from_iterable(values) if ndim == 2 else values
            if isinstance(values, (list, tuple)) and bool in map(type, entries):
                raise TypeError("a bool is not a number")
            column = np.asarray(values)
            valid = column.dtype.kind in "iuf" and column.ndim == ndim and len(column) == n
            if valid:
                column = column.astype(np.float64, copy=False).view()
                column.setflags(write=False)  # rows share the feature matrix, so a write would change the record
                valid = bool(rule(column))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise _Irregular(f"candidate {name} column breaks the candidate rules")
    return column


def _candidate(box: Box, iou_label=None, features=None, source_index=None) -> Candidates:
    """One candidate entry as a one-row table; its optional label, features and
    source index are checked one by one, so that an error names the rule broken."""
    if iou_label is not None:
        try:
            label = _real(iou_label)
        except (TypeError, OverflowError) as exc:
            raise DataError(f"iou_label must be a number, got {iou_label!r}") from exc
        if not 0.0 <= label <= 1.0:  # NaN and infinities fail too
            raise DataError(f"iou_label must lie in [0, 1], got {label!r}")
        iou_label = [label]
    if features is not None:
        try:
            if isinstance(features, (list, tuple)) and bool in map(type, features):
                raise TypeError("a bool is not a number")  # np.asarray would read true as 1
            feats = np.asarray(features)
            if feats.dtype.kind not in "iuf" and not all(map(_is_real, feats.flat)):
                raise TypeError("features are not numbers")  # strings are never parsed as numbers
            feats = feats.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError("features must be a list of numbers") from exc
        if feats.ndim != 1:
            raise DataError(f"features must be a flat vector, got shape {feats.shape}")
        if not len(feats):
            raise DataError("features must not be empty")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        features = feats[None]
    if source_index is not None:
        index = _as_int(source_index, "source_index")
        if index < 0:
            raise DataError(f"source_index must be non-negative, got {index}")
        source_index = (index,)
    return Candidates(np.array([box.as_list()]), iou_label, features, source_index)


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
    each. Checked as arrays, the columns are stored without a copy. An entry
    that breaks a rule fails with that rule's error, prefixed with the image
    and the candidate as in "<image_id>: candidate 3 ...".
    """
    groundtruth = tuple(groundtruth)
    try:
        table = Candidates(boxes, labels, features, source_index)
    except _Irregular:
        rows = boxes.tolist() if isinstance(boxes, np.ndarray) else boxes
        for name, column in zip(_COLUMNS[1:], (labels, features, source_index)):
            if column is not None and len(column) != len(rows):  # zip would stop at the shorter one
                raise DataError(f"{image_id}: the {name} column has {len(column)} entries for {len(rows)} boxes")
        entries = zip(rows, *(repeat(None) if c is None else c for c in (labels, features, source_index)))
        table = _each(image_id, "candidate", entries, lambda entry: _candidate(_box_from_list(entry[0]), *entry[1:]))
    return ImageRecord(image_id, width, height, groundtruth, table)


def replace_column(record: ImageRecord, name: str, values) -> ImageRecord:
    """record with its candidates' labels or features column replaced by
    values, one per candidate, or dropped by None; a DataError if they break
    the candidate rules."""
    return replace(record, candidates=replace(record.candidates, **{name: values}))


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


def _head(record: ImageRecord) -> dict:
    """The keys of record's line before its candidates."""
    return {
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "groundtruth": [
            {"class": g.class_label, "box": g.box.as_list()} for g in record.groundtruth
        ],
    }


def record_to_dict(record: ImageRecord) -> dict:
    obj = _head(record)
    cands = record.candidates
    entries = [{"box": box} for box in cands.boxes.tolist()]
    for key, column in (("iou_label", cands.labels), ("features", cands.features)):
        if column is not None:
            for entry, value in zip(entries, column.tolist()):
                entry[key] = value
    for entry, index in zip(entries, cands.source_index or ()):
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
    json_value(entry, dict, "entry")
    return GroundTruthObject(json_field(entry, "class"), _box_from_list(json_field(entry, "box")))


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
    image_id = json_field(json_value(obj, dict, "record"), "image_id", str)
    try:
        width, height = (_as_int(json_field(obj, key), key) for key in ("width", "height"))
        gt_entries, entries = (json_field(obj, key, list, ()) for key in ("groundtruth", "candidates"))
    except DataError as exc:
        raise DataError(f"{image_id}: {exc}") from exc
    groundtruth = _each(image_id, "groundtruth", gt_entries, _groundtruth_from_dict)
    entries = [entry if isinstance(entry, dict) else {} for entry in entries]
    boxes = [entry.get("box", _NO_BOX) for entry in entries]
    columns = (_column([entry.get(key) for entry in entries]) for key in ("iou_label", "features", "source_index"))
    return record_from_columns(image_id, width, height, groundtruth, boxes, *columns)


# ---------------------------------------------------------------------------
# Codec lanes (see the module docstring)
#
# On the 2-vCPU machine the benchmark runs on, a fork costs 1.4-3.2 ms and
# the codec about 0.7 us a number to encode. Split over two lanes,
# _FORK_MIN_VALUES numbers save more than one fork, so a call with no more
# stays in the caller.
_FORK_MIN_VALUES = 16_384
# Image visits of a descent that ranking runs on a forked lane beside the
# digest of its training set (see ranking._fit). A visit takes about 4 us at
# tens of rows per image, so a slow fork costs about 800 of them; 4096 visits
# (about 16 ms) pay for it five times over and keep a hog-online-sized set
# (4 images x 200 epochs) in the caller.
_FORK_MIN_STEPS = 4_096


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.cache
def _lane_pool() -> ThreadPoolExecutor:
    """The threads that run every HOG lane but the caller's, started as lanes
    need them and joined by _forked_shares before it forks."""
    return ThreadPoolExecutor(max_workers=max(1, (os.cpu_count() or 1) - 1), thread_name_prefix="proprank-hog")


if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, so it starts a pool of its own.
    os.register_at_fork(after_in_child=_lane_pool.cache_clear)


def _fork_cpus() -> int:
    """The lanes the codec may fork: one per usable CPU on Linux while every
    other thread is a HOG lane thread, else 1, since any other thread may
    hold a lock across the fork. The HOG lane threads are idle while the
    caller is in the codec: the HOG kernel waits for its lanes before it
    returns, and no other thread is left to hand them work. So
    _forked_shares can join them before it forks."""
    others = set(threading.enumerate()) - {threading.current_thread()}
    # A ThreadPoolExecutor keeps its worker threads in _threads.
    lane_threads = _lane_pool()._threads if _lane_pool.cache_info().currsize else set()
    if sys.platform != "linux" or not others <= lane_threads:
        return 1
    return _usable_cpus()


def _forked(fn: Callable[[T], R], items: Sequence[T]) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that writes fn of each item,
    as one pickled list, into the pipe and exits 0, or exits 1 if anything
    fails."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(list(map(fn, items)), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # never back into the caller's stack
    os.close(write_end)  # so that only the child holds it, and a later child cannot
    return pid, read_end


def _collected(pid: int, read_end: int) -> list | None:
    """The results a forked child sent, read straight from its pipe, or None
    if it sent a short payload or did not exit 0. The child is reaped before
    this returns or raises."""
    results = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            results = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # a short payload: the caller computes the share
        pass
    finally:
        if results is None:  # it may be stuck writing into a pipe a later child also holds
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    return results if status == 0 else None


def _lanes(items: int, values: int) -> int:
    """The lanes _lane_map computes that many items on, which carry that many numbers."""
    return min(_fork_cpus(), items) if values > _FORK_MIN_VALUES else 1


@contextlib.contextmanager
def _forked_shares(fn: Callable[[T], R], shares: Sequence[Sequence[T]]) -> Iterator[Callable[[int], list[R]]]:
    """Fork one child per share, which computes fn of each of its items, and
    yield result(i): the results of shares[i] from its child, or computed by
    the caller if that child failed or could not be forked. The HOG lane
    threads are joined before the first fork, since no thread may live
    across one; the next HOG call starts a new pool. When the with block
    exits, every child whose result was not taken is killed, and every
    child is reaped."""
    if _lane_pool.cache_info().currsize:
        _lane_pool().shutdown()
        _lane_pool.cache_clear()
    children: list[tuple[int, int] | None] = []  # pid and read end of each share's child
    try:
        for share in shares:
            try:
                children.append(_forked(fn, share))
            except OSError:  # no process or pipe to spare: the caller computes the share
                children.append(None)

        def result(i: int) -> list[R]:
            child, children[i] = children[i], None
            got = None if child is None else _collected(*child)
            return list(map(fn, shares[i])) if got is None else got

        yield result
    finally:
        for pid, read_end in filter(None, children):
            os.kill(pid, signal.SIGKILL)
            os.close(read_end)
            os.waitpid(pid, 0)


def _lane_map(fn: Callable[[T], R], items: Sequence[T], values: int) -> list[R]:
    """fn of each item, computed in one contiguous share per lane when the
    items carry more than _FORK_MIN_VALUES numbers: share 0 by the caller,
    each other share by a forked child (see _forked_shares). A share whose
    child fails is computed by the caller, so the result never depends on a
    child, and every child is reaped, killed first if its result is not
    needed, before this returns or raises."""
    lanes = _lanes(len(items), values)
    if lanes <= 1:
        return list(map(fn, items))
    bounds = [len(items) * lane // lanes for lane in range(lanes + 1)]
    with _forked_shares(fn, [items[start:stop] for start, stop in zip(bounds[1:-1], bounds[2:])]) as result:
        results = list(map(fn, items[:bounds[1]]))
        for i in range(lanes - 1):
            results += result(i)
        return results


def _values(record: ImageRecord) -> int:
    """The numbers on the record's line, near enough: coordinates, labels and features."""
    cands = record.candidates
    columns = (cands.boxes, cands.labels, cands.features)
    return 4 * len(record.groundtruth) + sum(c.size for c in columns if c is not None)


def _line(record: ImageRecord) -> str:
    return json.dumps(record_to_dict(record), allow_nan=False)


def dataset_to_lines(dataset: Dataset, source: Dataset | None = None) -> list[str]:
    """The canonical JSON line of each record, encoded on the codec lanes.

    source is the dataset this one was derived from, if any. While its JSON
    Lines may be copied (see Copying the source's text), they are read once,
    start to end, and each candidate's box, iou_label and features take
    their text from the source's line of the same image_id wherever it
    holds a value with the same bits; only the other numbers are formatted,
    and counted towards forking. If the lines read do not hash to the
    source's sha256, or are not one per source record, every number is
    formatted. The lines are the same with and without the source.
    """
    lines = None if source is None else _copied_lines(dataset, source)
    if lines is None:
        lines = _lane_map(_line, dataset.records, sum(map(_values, dataset.records)))
    return lines


def dataset_from_lines(lines: Iterable[bytes | str]) -> Dataset:
    """Dataset from JSON Lines, one record per line; blank lines are skipped.

    Each line is decoded, and checked against the records before it (unique
    image ids, one feature dimension), as it is read, so the first error in
    line order is raised, naming its line.
    """
    records: list[ImageRecord] = []
    by_id: dict[str, ImageRecord] = {}
    dim = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = decode_json(line, record_from_dict, f"line {line_no}")
        try:
            dim = _join(by_id, dim, record)
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        records.append(record)
    return Dataset(tuple(records))


def _hashed(lines: Iterable[bytes], digest) -> Iterator[bytes]:
    """lines, each fed to digest as it passes."""
    for line in lines:
        digest.update(line)
        yield line


# ---------------------------------------------------------------------------
# The columns file
#
# write_dataset leaves <path>.columns.npz beside the JSON Lines it writes:
# every record's columns concatenated into a few arrays, and the SHA-256 of
# the JSON Lines bytes. read_dataset builds the dataset from it, through
# record_from_columns and Dataset, only while the file at path has that
# SHA-256, as Python trusts a hash-based .pyc (PEP 552); in every other case
# it parses the JSON Lines, so every error comes from them. Deleting the
# columns file is always safe. The JSON Lines stay the interchange format.

COLUMNS_SUFFIX = ".columns.npz"

# Each array of a columns file, with its dtype and number of axes. Text is
# one UTF-8 blob per kind with the byte length of each string, since a numpy
# string array drops trailing NULs. Per record: (width, height), the
# groundtruth and candidate counts, and the width of each optional candidate
# column, which is complete or absent in each record: 1 or 0 for labels and
# source_index, the feature dimension or 0 for features.
_COLUMNS_FILE = {
    "sha256": (np.uint8, 1),
    "id_lengths": (np.int64, 1),
    "ids": (np.uint8, 1),
    "sizes": (np.int64, 2),
    "groundtruth": (np.int64, 1),
    "class_lengths": (np.int64, 1),
    "classes": (np.uint8, 1),
    "gt_boxes": (np.float64, 2),
    "candidates": (np.int64, 1),
    "widths": (np.int64, 2),
    "boxes": (np.float64, 2),
    "labels": (np.float64, 1),
    "features": (np.float64, 1),
    "source_index": (np.int64, 1),
}


def beside(path: str | Path, suffix: str) -> Path:
    """The sibling file named path + suffix: the columns file, sidecars,
    manifests, report tables and the .tmp file of a write."""
    path = Path(path)
    return path.with_name(path.name + suffix)


def _text_blob(texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """The byte length of each text in UTF-8, and their bytes as one array; a
    lone surrogate is a UnicodeEncodeError."""
    encoded = [text.encode("utf-8") for text in texts]
    return np.array(list(map(len, encoded)), dtype=np.int64), np.frombuffer(b"".join(encoded), dtype=np.uint8)


def _columns_file_arrays(dataset: Dataset, sha256: bytes) -> dict[str, np.ndarray]:
    """The arrays of dataset's columns file; an OverflowError for an integer
    beyond int64 and a UnicodeEncodeError for text that is not UTF-8, which
    have no exact form there."""
    records = dataset.records
    tables = [rec.candidates for rec in records]
    groundtruth = [g for rec in records for g in rec.groundtruth]
    id_lengths, ids = _text_blob(rec.image_id for rec in records)
    class_lengths, classes = _text_blob(g.class_label for g in groundtruth)
    present = [[t for t in tables if getattr(t, name) is not None] for name in _COLUMNS[1:]]
    return {
        "sha256": np.frombuffer(sha256, dtype=np.uint8),
        "id_lengths": id_lengths,
        "ids": ids,
        "sizes": np.array([(rec.width, rec.height) for rec in records], dtype=np.int64).reshape(-1, 2),
        "groundtruth": np.array([len(rec.groundtruth) for rec in records], dtype=np.int64),
        "class_lengths": class_lengths,
        "classes": classes,
        "gt_boxes": box_array(g.box for g in groundtruth),
        "candidates": np.array(list(map(len, tables)), dtype=np.int64),
        "widths": np.array([
            (t.labels is not None, 0 if t.features is None else t.features.shape[1], t.source_index is not None)
            for t in tables
        ], dtype=np.int64).reshape(-1, 3),
        "boxes": np.concatenate([np.zeros((0, 4)), *(t.boxes for t in tables)]),
        "labels": np.concatenate([np.zeros(0), *(t.labels for t in present[0])]),
        "features": np.concatenate([np.zeros(0), *(t.features.ravel() for t in present[1])]),
        "source_index": np.concatenate([
            np.zeros(0, dtype=np.int64), *(np.array(t.source_index, dtype=np.int64) for t in present[2])
        ]),
    }


def _load_columns_file(path: Path) -> dict[str, np.ndarray] | None:
    """The arrays of the columns file at path, or None if there is none or
    it is not an npz of them, each of its dtype and number of axes.
    allow_pickle=False refuses an object array, so loading runs no code.
    The file is closed on every path, an error of np.load's too."""
    try:
        with open(path, "rb") as file:
            npz = np.load(file, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a lone .npy array
                return None
            with npz:
                arrays = {name: npz[name] for name in _COLUMNS_FILE}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    if all((array.dtype, array.ndim) == _COLUMNS_FILE[name] for name, array in arrays.items()):
        return arrays
    return None


def _parts(items, lengths: np.ndarray) -> list:
    """items cut into consecutive parts of the given lengths, which must
    cover them exactly; a part of an array is a view."""
    if (lengths < 0).any() or lengths.sum() != len(items):
        raise DataError("the columns file's lengths do not cover its columns")
    bounds = [0, *np.cumsum(lengths).tolist()]
    return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _texts(blob: np.ndarray, lengths: np.ndarray) -> list[str]:
    return [part.tobytes().decode("utf-8") for part in _parts(blob, lengths)]


def _dataset_from_columns_file(arrays: dict[str, np.ndarray]) -> Dataset:
    """The dataset whose columns file holds arrays, built and checked as every
    dataset is; a ValueError, a DataError among them, if they do not build one."""
    counts, widths = arrays["candidates"], arrays["widths"]
    classes = _texts(arrays["classes"], arrays["class_lengths"])
    groundtruth = [GroundTruthObject(c, Box(*box)) for c, box in zip(classes, arrays["gt_boxes"].tolist(), strict=True)]
    per_record = (
        _texts(arrays["ids"], arrays["id_lengths"]),
        arrays["sizes"].tolist(),
        _parts(groundtruth, arrays["groundtruth"]),
        _parts(arrays["boxes"], counts),
        *(_parts(arrays[name], counts * widths[:, k]) for k, name in enumerate(_COLUMNS[1:])),
        widths.tolist(),
    )
    records = []
    for image_id, (width, height), gt, boxes, labels, features, sources, (has_labels, dim, has_sources) in zip(
        *per_record, strict=True
    ):
        n = len(boxes)
        records.append(record_from_columns(
            image_id, width, height, gt, boxes,
            labels.reshape(n) if has_labels else None,
            features.reshape(n, dim) if dim else None,
            tuple(sources.reshape(n).tolist()) if has_sources else None,
        ))
    return Dataset(tuple(records))


def _file_sha256(path: str | Path) -> bytes:
    """The SHA-256 of the file's bytes, read in 1 MB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def _read_columns_file(path: str | Path) -> Dataset | None:
    """The dataset in the columns file beside path, with its source_sha256,
    if that file records the SHA-256 of path's bytes and builds a dataset;
    else None."""
    arrays = _load_columns_file(beside(path, COLUMNS_SUFFIX))
    if arrays is None:
        return None
    sha256 = _file_sha256(path)
    if arrays["sha256"].tobytes() != sha256:
        return None
    try:
        dataset = _dataset_from_columns_file(arrays)
    except ValueError:  # a DataError among them
        return None
    object.__setattr__(dataset, "source_sha256", sha256.hex())
    object.__setattr__(dataset, "_source_path", Path(path).absolute())
    return dataset


def read_dataset(path: str | Path) -> Dataset:
    """The dataset in a JSON Lines file, with the SHA-256 of its bytes as its
    source_sha256. It is built from the columns file beside path when that
    file records this SHA-256, and then remembers path, so that writing a
    dataset derived from it can copy the text of its unchanged values (see
    write_dataset); otherwise the JSON Lines are parsed, and hashed as they
    are read, and their text is never copied, since it need not be the
    canonical text of the values."""
    dataset = _read_columns_file(path)
    if dataset is None:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            dataset = dataset_from_lines(_hashed(fh, digest))
        object.__setattr__(dataset, "source_sha256", digest.hexdigest())
    return dataset


# ---------------------------------------------------------------------------
# Copying the source's text
#
# A line write_dataset wrote is json.dumps of its record, so the text of a
# candidate's box, iou_label or features there is the text json.dumps gives
# any value with the same float64 bits (-0.0 and 0.0 have different bits,
# and different texts). When read_dataset built a dataset from its columns
# file, which recorded the SHA-256 of the JSON Lines beside it,
# dataset_to_lines of a dataset derived from it reads the source's JSON
# Lines once, from start to end: each line is hashed as it goes by, and the
# value texts of a record written from it are taken from it then. They are
# used only if the whole file turns out to have one line per source record
# and to hash to source_sha256; otherwise every record is formatted. So
# every copied text comes from bytes that, together, hash to the SHA-256
# read_dataset checked the columns file against, and no more than one source
# line is held at a time. A record's boxes are matched row by row to the
# source record's by their bits once, whatever the rows' order, so
# permuted, dropped or repeated candidates find their text; its labels and
# features are compared bitwise under that match, and only the rows that
# differ are searched for on their own. The values no source row holds are
# formatted.

_NEXT_CANDIDATE = '}, {"box": '
# The optional candidate columns with the text before their value on a line, in line order.
_FIELD_KEYS = {"labels": ', "iou_label": ', "features": ', "features": ', "source_index": ', "source_index": '}


def _bits(column: np.ndarray | None) -> np.ndarray | None:
    """The rows of a float64 column as rows of uint64 words, which are equal
    only where the floats have the same bits."""
    return None if column is None else np.ascontiguousarray(column).view(np.uint64).reshape(len(column), -1)


def _copies(bits: np.ndarray, source_bits: np.ndarray | None, guess: np.ndarray | None = None) -> np.ndarray | None:
    """For each row of bits, the index of a row of source_bits with the same
    bits, or -1 if it has none; None if the two hold the same rows. Each row
    is tried at its guess, if given, and searched for only if that fails."""
    if source_bits is None or not len(source_bits) or source_bits.shape[1] != bits.shape[1]:
        return np.full(len(bits), -1)
    if source_bits.shape == bits.shape and np.array_equal(bits, source_bits):
        return None
    index = np.full(len(bits), -1) if guess is None else np.where((source_bits[guess] == bits).all(axis=1), guess, -1)
    missed = np.flatnonzero(index < 0)
    if len(missed):  # each row's bytes as one opaque value, sought among the source rows'
        void = np.dtype((np.void, bits.itemsize * bits.shape[1]))
        keys, source_keys = np.ascontiguousarray(bits[missed]).view(void).ravel(), source_bits.view(void).ravel()
        order = np.argsort(source_keys, kind="stable")
        found = order[np.searchsorted(source_keys[order], keys).clip(max=len(order) - 1)]
        index[missed] = np.where(source_keys[found] == keys, found, -1)
    return index


def _plan(record: ImageRecord, source: ImageRecord) -> tuple[dict[str, np.ndarray | None], int]:
    """Where each of record's box, iou_label and features values finds its
    text in source's line, by column, as _copies gives it, and how many
    numbers are left to format. Both records have candidates."""
    cands, source_cands = record.candidates, source.candidates
    rows = _copies(_bits(cands.boxes), _bits(source_cands.boxes))
    guess = np.arange(len(cands)) if rows is None else rows
    copies = {"boxes": rows}
    for name in ("labels", "features"):
        if getattr(cands, name) is not None:
            copies[name] = _copies(_bits(getattr(cands, name)), _bits(getattr(source_cands, name)), guess)
    numbers = 4 * len(record.groundtruth) + sum(
        int(np.count_nonzero(index < 0)) * (getattr(cands, name).size // len(cands))
        for name, index in copies.items() if index is not None
    )
    return copies, numbers


def _present(cands: Candidates) -> list[str]:
    """The columns cands has, in line order."""
    return ["boxes", *(name for name in _FIELD_KEYS if getattr(cands, name) is not None)]


def _formatted(values: np.ndarray | tuple) -> list[str]:
    """The text json.dumps gives each value of a column, a row at a time
    for a two-dimensional one, so that only one row's floats live at once."""
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return [json.dumps(row, allow_nan=False) for row in map(np.ndarray.tolist, values)]
    if not len(values):
        return []
    text = json.dumps(values.tolist() if isinstance(values, np.ndarray) else [*values], allow_nan=False)
    return text[1:-1].split(", ")


def _column_texts(values: np.ndarray | tuple, index: np.ndarray | None, source_texts: list[str] | None) -> list[str]:
    """The text of each value: source_texts[index[i]] where index[i] >= 0,
    all of source_texts when index is None, formatted otherwise."""
    if source_texts is None:
        return _formatted(values)
    if index is None:
        return source_texts
    index = index.tolist()
    texts = [source_texts[i] if i >= 0 else "" for i in index]
    holes = [k for k, i in enumerate(index) if i < 0]
    for k, text in zip(holes, _formatted(values[holes])):
        texts[k] = text
    return texts


def _source_texts(source: Candidates, line: bytes) -> dict[str, list[str]] | None:
    """The text of each box, iou_label and features value of source on its
    line, by column; None if the line does not hold them where write_dataset
    puts them."""
    names = _present(source)
    count = len(source) * len(names)
    if not line.endswith(b"}]}\n"):
        return None
    # Every key ends in '": ', which no number's text holds and every other
    # quote on a line is escaped: split there, the last pieces are the
    # candidates' values, each followed by the start of the key after it,
    # and the one before them starts the first candidate.
    text = str(line, "utf-8", "replace")
    pieces = text.split('": ')[-count - 1:]
    del text  # a line can take megabytes: hold as few copies of it as can be
    if len(pieces) != count + 1 or pieces[0] != '[{"box':
        return None
    pieces[-1] = pieces[-1][:-4] + _NEXT_CANDIDATE[:-3]  # the last value is followed by the line's end
    ends = [len(_FIELD_KEYS[name]) - 3 for name in names[1:]] + [len(_NEXT_CANDIDATE) - 3]
    return {
        name: [piece[:-end] for piece in pieces[1 + k::len(names)]]
        for k, (name, end) in enumerate(zip(names, ends)) if name != "source_index"
    }


def _copied_line(item: tuple) -> str:
    """The canonical JSON line of a record, given as (record, its _plan
    copies, its source line's _source_texts): each value's text copied where
    copies finds a row with the same bits, formatted otherwise."""
    record, copies, source_texts = item
    if source_texts is None:
        return _line(record)
    parts = []
    for name in _present(record.candidates):
        texts = _column_texts(getattr(record.candidates, name), copies.get(name), source_texts.get(name))
        parts += [texts] if name == "boxes" else [repeat(_FIELD_KEYS[name]), texts]
    head = json.dumps({**_head(record), "candidates": []}, allow_nan=False)[:-2]
    return head + '{"box": ' + _NEXT_CANDIDATE.join(map("".join, zip(*parts))) + "}]}"


def _copied_lines(dataset: Dataset, source: Dataset) -> list[str] | None:
    """dataset_to_lines(dataset) with the text of the values source's JSON
    Lines hold copied from them, in one pass over those lines; None if they
    may not be copied.

    A write that forks the codec lanes takes each record's texts as its
    source line goes by and builds the lines on the lanes after the pass;
    any other builds each line as its source line goes by."""
    path = source._source_path
    if path is None:
        return None
    records, position = dataset.records, {rec.image_id: i for i, rec in enumerate(source.records)}
    items: list = [(rec, None, None) for rec in records]  # each becomes its line, or the lanes' item for it
    wanted, numbers = {}, 0  # source line -> (record written from it, its copies); numbers to format
    for j, rec in enumerate(records):
        i = position.get(rec.image_id)
        if i is None or not len(rec.candidates) or not len(source.records[i].candidates):
            numbers += _values(rec)
        else:
            copies, count = _plan(rec, source.records[i])
            wanted[i] = j, copies
            numbers += count
    forks = _lanes(len(records), numbers) > 1
    digest, lines_read = hashlib.sha256(), 0
    try:
        with open(path, "rb", buffering=1 << 20) as file:
            for i, line in enumerate(file):
                digest.update(line)
                lines_read = i + 1
                if i in wanted:
                    j, copies = wanted[i]
                    items[j] = (records[j], copies, _source_texts(source.records[i].candidates, line))
                    if not forks:
                        items[j] = _copied_line(items[j])
    except OSError:
        return None
    if lines_read != len(source.records) or digest.hexdigest() != source.source_sha256:
        return None
    if forks:
        return _lane_map(_copied_line, items, numbers)
    return [item if isinstance(item, str) else _copied_line(item) for item in items]


def atomic_write_text(path: str | Path, text: str | bytes) -> None:
    """Write text, as UTF-8 unless it is bytes already, to path through a
    sibling .tmp file, so readers never see a partial file; a failed write
    removes the .tmp file and re-raises."""
    tmp = beside(path, ".tmp")
    try:
        tmp.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(dataset: Dataset, path: str | Path, source: Dataset | None = None) -> list[Path]:
    """Write the canonical JSON Lines of dataset, whose SHA-256 becomes its
    cached dataset_digest, then its columns file beside them; return the
    paths written. A dataset with a value the columns file cannot hold
    exactly (an integer beyond int64, text that is not UTF-8) gets none, and
    a columns file left beside path by an earlier write is removed.

    source is the dataset that dataset was derived from, as label, rerank
    and featurize derive theirs. If read_dataset built it from its columns
    file, the JSON Lines beside that file are read and hashed once, and the
    text of each candidate value that still has the bits source had is
    taken from its line as the line goes by. That text is copied, rather
    than formatted again, only if the whole file still hashes to source's
    sha256. The bytes written are the same: a value's text there is
    json.dumps of the same bits. The source is read in full before the file
    at path is replaced, so path may be the source's own."""
    path = Path(path)
    data = "\n".join([*dataset_to_lines(dataset, source), ""]).encode("utf-8")  # no second copy of each line
    atomic_write_text(path, data)
    digest = hashlib.sha256(data)
    object.__setattr__(dataset, "_digest", digest.hexdigest())
    columns_path = beside(path, COLUMNS_SUFFIX)
    try:
        arrays = _columns_file_arrays(dataset, digest.digest())
    except (OverflowError, UnicodeEncodeError):
        columns_path.unlink(missing_ok=True)
        return [path]
    npz = io.BytesIO()
    np.savez(npz, **arrays)
    atomic_write_text(columns_path, npz.getvalue())
    return [path, columns_path]


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
