"""Fuzzing of the JSON decoding boundary: malformed input is a DataError, never a crash.

Each example takes a valid document, replaces one value at any depth with an
arbitrary JSON value or deletes it, and decodes the result. The replacements
are biased towards numbers beyond float range and towards nesting deeper than
the JSON parser allows, the two shapes that escaped as OverflowError and
RecursionError, and towards values of the wrong JSON kind. Every message must
name the fault in the decoder's words, never as a Python error.
"""

import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proprank import (
    Box,
    DataError,
    Dataset,
    EvalConfig,
    GrayImage,
    GroundTruthObject,
    HogConfig,
    ImageRecord,
    SynthConfig,
    TrainingConfig,
    dataset_digest,
    dataset_from_lines,
    dataset_to_lines,
    featurize_dataset,
    generate_feature_dataset,
    generate_geometric_dataset,
    identity_rankings,
    iou_matrix,
    label_dataset,
    read_dataset,
    report,
    rerank,
    save_model,
    write_dataset,
)
from conftest import assert_same_reads
from proprank import core
from proprank.cli import main
from proprank.core import _as_int, _candidate, box_array, decode_json, record_from_dict
from proprank.features import _describe_boxes
from proprank.metrics import render_csv, render_text, report_from_dict
from proprank.ranking import model_from_dict, model_to_dict, train_soft_margin

RECORD = {
    "image_id": "im",
    "width": 16,
    "height": 12,
    "groundtruth": [{"class": "cat", "box": [1, 1, 8, 9]}],
    "candidates": [
        {"box": [0, 0, 8, 8], "iou_label": 0.5, "features": [0.5, -1.0], "source_index": 1},
        {"box": [2, 2, 16, 12], "iou_label": 0.25, "features": [2.0, 0.0], "source_index": 0},
    ],
}

_HOLE = "\u0000hole"

# JSON text of the replacement value; a text fragment rather than a value so
# that nesting too deep for json.dumps can be spliced in.
_scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)
_beyond_float = st.integers(309, 2000).flatmap(
    lambda digits: st.sampled_from([f"1{'0' * digits}", f"-9{'9' * digits}", f"1e{digits}", f"-2.5e{digits}"])
)
_deep = st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth)
# One value of each JSON kind, and lists and objects of the wrong shape.
SHAPES = ("5", "2.5", '"x"', '"10"', "null", "true", "false", "[]", "[1]", '["a"]', "{}", '{"a": 1}', "[[1]]")
# A fragment, or None to delete the value from its object or list.
FRAGMENTS = st.one_of(_values, _beyond_float, _deep, st.sampled_from(SHAPES), st.none())

# What a message reads like when a decoder lets a Python error through.
_INTERNALS = ("object is not", "has no attribute", "not subscriptable", "indices must be", "argument of type",
              "unhashable", "too large to convert")


def _assert_names_the_fault(message: str, where: str) -> None:
    """message starts with where; past it and the file kind it reads as the
    decoder's own words, neither Python internals nor a KeyError's bare key."""
    assert message.startswith(f"{where}: "), message
    rest = re.sub(r"^invalid \w+ file: ", "", message[len(where) + 2:])
    assert not any(internal in rest for internal in _INTERNALS), message
    assert not re.fullmatch(r"'[^']*'", rest), message


def _paths(value, prefix=()):
    """Every position in a JSON value: the root, each dict key and each list index."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _with_fragment(document, path, fragment: str | None) -> str:
    """JSON text of the document with the value at path replaced by a raw JSON
    fragment, or deleted when fragment is None (the root then leaves no text)."""
    copy = json.loads(json.dumps(document))
    if not path:
        return fragment or ""
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if fragment is None:
        del parent[path[-1]]
        return json.dumps(copy)
    parent[path[-1]] = _HOLE
    return json.dumps(copy).replace(json.dumps(_HOLE), fragment)


def _valid_model() -> dict:
    ds, _ = generate_feature_dataset(SynthConfig(seed=3, num_images=2, candidates_per_image=4, feature_dim=2))
    obj = model_to_dict(train_soft_margin(ds, TrainingConfig(k=1, epochs=3)))
    obj["hog_config"] = {"resize_w": 8, "resize_h": 8, "cell_size": 4}
    return obj


def _rendered_report(text):
    """A saved report decoded and rendered as both tables, as the report command does."""
    config, reports = decode_json(text, report_from_dict, "report.json", "report")
    return render_text(reports, config), render_csv(reports, config)


def _valid_report() -> dict:
    ds = generate_geometric_dataset(SynthConfig(seed=1, num_images=2, candidates_per_image=6, mode="geometric",
                                                image_size=(64, 48)))
    rankings = identity_rankings(ds)
    saved = report(ds, rankings, rankings, EvalConfig((0.5, 0.7), (1, 5))).to_dict()
    return json.loads(json.dumps(saved))  # its config's tuples as the lists a file holds


MODEL = _valid_model()
REPORT = _valid_report()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(RECORD))), FRAGMENTS)
def test_dataset_line_with_any_value_replaced_decodes_or_raises_data_error(path, fragment):
    line = _with_fragment(RECORD, path, fragment)
    if not line:
        return  # a blank line is skipped
    try:
        dataset_from_lines(["", line])
    except DataError as exc:
        _assert_names_the_fault(str(exc), "line 2")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(MODEL))), FRAGMENTS)
def test_model_file_with_any_value_replaced_decodes_or_raises_data_error(path, fragment):
    raw = _with_fragment(MODEL, path, fragment).encode("utf-8")
    try:
        decode_json(raw, model_from_dict, "model.json", "model")
    except DataError as exc:
        _assert_names_the_fault(str(exc), "model.json")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(REPORT))), FRAGMENTS)
@example(("sources",), "[]")
def test_saved_report_with_any_value_replaced_decodes_or_raises_data_error(path, fragment):
    try:
        _rendered_report(_with_fragment(REPORT, path, fragment).encode("utf-8"))
    except DataError as exc:
        _assert_names_the_fault(str(exc), "report.json")


def _value_at(document, path):
    for key in path:
        document = document[key]
    return document


@pytest.mark.parametrize("document, build, where", [
    (RECORD, lambda text: dataset_from_lines([text]), "line 1"),
    (MODEL, lambda text: decode_json(text, model_from_dict, "model.json", "model"), "model.json"),
    (REPORT, _rendered_report, "report.json"),
], ids=["dataset-line", "model", "report"])
def test_every_value_of_the_wrong_kind_or_deleted_is_named(document, build, where):
    """Each position replaced by each of SHAPES, and each key or entry deleted.
    In a dataset line a bool never stands for a number."""
    for path in _paths(document):
        number = document is RECORD and type(_value_at(document, path)) in (int, float)
        for fragment in SHAPES + ((None,) if path else ()):
            try:
                build(_with_fragment(document, path, fragment))
            except DataError as exc:
                _assert_names_the_fault(str(exc), where)
            else:
                assert not (number and fragment in ("true", "false")), (path, fragment)


# ---------------------------------------------------------------------------
# The column-wise record builder against the per-entry type path
#
# record_from_dict checks a record's candidates as columns. The reference
# below builds every candidate on its own, through Box and the per-entry
# checks into a one-row table, and the record through ImageRecord from those
# tables; the two must build the same record or fail with the same text.


def _box(value) -> Box:
    if not isinstance(value, list) or len(value) != 4:
        raise DataError("box must be a 4-element [x_min, y_min, x_max, y_max] list")
    return Box(*value)


def _built(image_id, kind: str, entries, build) -> tuple:
    built = []
    for i, entry in enumerate(entries):
        try:
            built.append(build(entry))
        except DataError as exc:
            raise DataError(f"{image_id}: {kind} {i} {exc}") from exc
    return tuple(built)


def _through_types(obj) -> ImageRecord:
    """A record line decoded one validated object at a time."""
    image_id = obj["image_id"]
    width = _as_int(obj["width"], f"{image_id}: width")
    height = _as_int(obj["height"], f"{image_id}: height")
    groundtruth = _built(
        image_id, "groundtruth", obj["groundtruth"], lambda g: GroundTruthObject(g["class"], _box(g["box"]))
    )
    candidates = _built(image_id, "candidate", obj["candidates"], lambda c: _candidate(
        _box(c["box"]), c.get("iou_label"), c.get("features"), c.get("source_index")
    ))
    return ImageRecord(image_id, width, height, groundtruth, candidates)


def _outcome(text: str, build):
    """(digest, features, feature_dim) of the decoded record, or its error text."""
    try:
        record = decode_json(text, build, "line 1")
    except DataError as exc:
        return str(exc)
    features = record.candidates.features
    features = None if features is None else (features.dtype, features.shape, features.tobytes())
    return dataset_digest(Dataset((record,))), features, record.feature_dim


_box_values = st.tuples(st.integers(0, 7) | st.floats(0, 7), st.integers(0, 5) | st.floats(0, 5),
                        st.integers(8, 16) | st.floats(8, 16), st.integers(6, 12) | st.floats(6, 12)).map(list)
_VALID = {
    "iou_label": st.floats(0, 1) | st.integers(0, 1),
    # Now and then an integer that numpy holds only as uint64 or object.
    "source_index": st.integers(0, 9).flatmap(lambda roll: st.integers(0, 20) if roll else st.integers(2**62, 2**64)),
}
# What a fault puts in place of one value: in half the draws a number at or
# just past a bound (an image side, the [0, 1] label range, another
# coordinate), otherwise a bool, None, a string, a number beyond float range
# or a list.
_FAULTS = st.integers(0, 7).flatmap(lambda roll: [
    st.sampled_from([-2.5, -1, -0.5, -0.0, 0, 0.5, 1, 1.5, 2, 5, 8, 12, 16, 16.5, 17]),
    st.sampled_from([-2.5, -1, -0.5, -0.0, 0, 0.5, 1, 1.5, 2, 5, 8, 12, 16, 16.5, 17]),
    st.integers(0, 16),
    st.floats(-2, 20),
    st.booleans(),
    st.none() | st.text(max_size=3) | st.sampled_from(["1", "0.5", " 2"]),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64 + 1, float("inf"), float("nan"), 1e308]),
    st.lists(st.integers(0, 16) | st.booleans() | st.none(), max_size=5) | st.just([[1.0]]),
][roll])


@st.composite
def _record_lines(draw, faults: bool = True) -> str:
    """A valid record line with up to two values replaced by a fault, or
    none without faults. Each optional candidate key is absent, on every
    candidate or on some; in half the lines every key is on every candidate
    and exactly one value is faulty, the case the column checks decide."""
    regular = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    valid = {**_VALID, "features": st.lists(st.floats(-1e6, 1e6) | st.integers(-9, 9), min_size=dim, max_size=dim)}
    plan = {key: "every" if regular else draw(st.sampled_from(["absent", "every", "every", "some"])) for key in valid}
    candidates = []
    for _ in range(draw(st.integers(1 if regular else 0, 5))):
        entry = {"box": draw(_box_values)}
        for key, mode in plan.items():
            if mode == "every" or (mode == "some" and draw(st.booleans())):
                entry[key] = draw(valid[key])
        candidates.append(entry)
    obj = {
        "image_id": draw(st.integers(0, 9).map(lambda roll: "im" if roll else "")),
        "width": 16,
        "height": 12,
        "groundtruth": [{"class": "c", "box": draw(_box_values)} for _ in range(draw(st.integers(0, 1)))],
        "candidates": candidates,
    }
    for _ in range(0 if not faults else 1 if regular else draw(st.sampled_from([0, 1, 1, 2]))):
        # A fault goes to the image size, a groundtruth value or one
        # candidate field, each as likely as the others.
        places = {("width",): [("width",)]}
        for p in _paths(obj):
            if p[:1] in (("candidates",), ("groundtruth",)) and len(p) > 2:
                places.setdefault(p[:1] + p[2:3], []).append(p)
        path = draw(st.sampled_from(places[draw(st.sampled_from(sorted(places)))]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        # A box corner on its opposite edge; an earlier fault may have left a
        # box that is not four values, which has no opposite edge.
        if path[-2:-1] == ("box",) and len(parent) == 4 and draw(st.booleans()):
            parent[path[-1]] = parent[(path[-1] + 2) % 4]
        else:
            parent[path[-1]] = draw(_FAULTS)
    return json.dumps(obj)


@settings(max_examples=800, deadline=None)
@given(_record_lines())
def test_column_builder_agrees_with_the_per_entry_types(line):
    assert _outcome(line, record_from_dict) == _outcome(line, _through_types)


@settings(max_examples=150, deadline=None)
@given(_record_lines())
def test_label_command_writes_what_label_dataset_gives_or_exits_2_writing_nothing(line):
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        source.write_text(line + "\n", encoding="utf-8")
        code = main(["label", str(source), str(out)])
        if code == 0:
            want = "".join(text + "\n" for text in dataset_to_lines(label_dataset(read_dataset(source))))
            assert out.read_text(encoding="utf-8") == want
        else:
            assert code == 2
            assert [p.name for p in Path(tmp).iterdir()] == ["in.jsonl"]


def _exact_in_columns(dataset: Dataset) -> bool:
    """Whether the columns file can hold every value of dataset: integers
    within int64 and text without lone surrogates."""
    texts = [rec.image_id for rec in dataset.records] + [g.class_label for r in dataset.records for g in r.groundtruth]
    integers = [n for r in dataset.records for n in (r.width, r.height, *(r.candidates.source_index or ()))]
    return max(integers, default=0) < 2**63 and not any("\ud800" <= ch <= "\udfff" for text in texts for ch in text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_record_lines(faults=False) | _record_lines(),
                          st.text(min_size=1, max_size=4) | st.sampled_from(["\x00", "a\x00", "\ud800"])),
                max_size=4))
def test_any_decoded_dataset_reads_from_its_columns_file_as_from_its_json_lines(drawn):
    records: dict = {}
    for line, image_id in drawn:  # the records that decode and join, under ids of any character
        try:
            record = replace(decode_json(line, record_from_dict, "line 1"), image_id=image_id)
        except DataError:
            continue
        dims = {r.feature_dim for r in records.values()} - {None}
        if image_id not in records and (record.feature_dim is None or dims <= {record.feature_dim}):
            records[image_id] = record
    dataset = Dataset(tuple(records.values()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        exact = _exact_in_columns(dataset)
        assert write_dataset(dataset, path) == [path, Path(tmp) / "d.jsonl.columns.npz"][:1 + exact]
        with mock.patch.object(core, "dataset_from_lines", wraps=core.dataset_from_lines) as parse:
            got = read_dataset(path)
        assert parse.call_count == 1 - exact
        core.beside(path, core.COLUMNS_SUFFIX).unlink(missing_ok=True)
        assert_same_reads(got, read_dataset(path))


# ---------------------------------------------------------------------------
# label, rerank and featurize against candidates rebuilt with replace()


def _labeled_by_replace(rec: ImageRecord) -> ImageRecord:
    best = iou_matrix(rec.candidates.boxes, box_array(g.box for g in rec.groundtruth)).max(axis=1, initial=0.0)
    return replace(rec, candidates=tuple(replace(c, labels=[v]) for c, v in zip(rec.candidates, best.tolist())))


def _reranked_by_replace(rec: ImageRecord, order: list[int]) -> ImageRecord:
    cands = rec.candidates
    return replace(rec, candidates=tuple(
        replace(cands[i], source_index=cands[i].source_index or (i,)) for i in order
    ))


def _same_datasets(got: Dataset, want: Dataset) -> None:
    assert dataset_to_lines(got) == dataset_to_lines(want)
    assert got.feature_dim == want.feature_dim
    for rec_got, rec_want in zip(got.records, want.records):
        for a, b in zip(rec_got.candidates, rec_want.candidates):
            assert (a.features is None) == (b.features is None)
            if a.features is not None:
                assert a.features.dtype == b.features.dtype and a.features.tobytes() == b.features.tobytes()


def _geometric(seed: int) -> Dataset:
    """A geometric synth dataset plus one bare record: its labels and
    features dropped, and a reversed source_index on every candidate."""
    config = SynthConfig(seed=seed, num_images=3, candidates_per_image=40, feature_dim=5, mode="geometric",
                         image_size=(64, 48))
    ds = generate_geometric_dataset(config)
    first = ds.records[0]
    bare = replace(first, image_id="bare", candidates=tuple(
        replace(c, labels=None, features=None, source_index=(39 - i,)) for i, c in enumerate(first.candidates)
    ))
    return Dataset(ds.records + (bare,))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_rerank_and_featurize_build_what_replace_built(seed, tmp_path):
    ds = _geometric(seed)
    _same_datasets(label_dataset(ds), Dataset(tuple(_labeled_by_replace(r) for r in ds.records)))

    # The bare record, given features, keeps its own source_index through rerank.
    bare = replace(ds.records[-1], candidates=tuple(
        replace(c, features=first.features)
        for c, first in zip(ds.records[-1].candidates, ds.records[0].candidates)
    ))
    featurized = Dataset(ds.records[:-1] + (bare,))
    data, model_path, ranked = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "ranked.jsonl"
    write_dataset(featurized, data)
    model = train_soft_margin(Dataset(ds.records[:-1]), TrainingConfig(k=3, epochs=20))
    save_model(model, model_path)
    assert main(["rerank", str(data), str(ranked), "--model", str(model_path)]) == 0
    reread = read_dataset(data)
    want = Dataset(tuple(_reranked_by_replace(r, rerank(model, r)) for r in reread.records))
    _same_datasets(read_dataset(ranked), want)
    assert ranked.read_text(encoding="utf-8") == "".join(line + "\n" for line in dataset_to_lines(want))

    rng = np.random.default_rng(seed)
    images = {r.image_id: GrayImage(r.width, r.height, rng.uniform(size=(r.height, r.width))) for r in ds.records}
    config = HogConfig(resize_w=16, resize_h=16, cell_size=4)
    out, failures = featurize_dataset(ds, images, config)
    assert failures == []
    want = Dataset(tuple(
        replace(rec, candidates=tuple(
            replace(c, features=_describe_boxes(images[rec.image_id], c.boxes, config))
            for c in rec.candidates
        ))
        for rec in ds.records
    ))
    _same_datasets(out, want)
    for rec in out.records:  # row views of one (n, dim) matrix per record
        assert len({id(c.features.base) for c in rec.candidates}) == 1
