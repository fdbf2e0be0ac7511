"""A record keeps its candidates as columns, and a NaN inside them is an error.
A dataset read back from the columns file beside its JSON Lines is the one
the JSON Lines give, and any columns file that does not match them is
passed over for them. A dataset derived from one read that way is written
with the text of its unchanged values copied from the source's JSON Lines,
in the same bytes as without the source."""

import builtins
import gc
import hashlib
import io
import json
import logging
import math
import tempfile
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_same_reads, copied_records, make_record
from proprank import (Box, DataError, Dataset, GroundTruthObject, ImageRecord, SynthConfig, dataset_from_lines,
                      generate_geometric_dataset, label_dataset, read_dataset, write_dataset)
from proprank import core
from proprank.cli import _reordered, main
from proprank.core import Candidates, record_from_columns, replace_column


def test_a_read_dataset_stores_no_object_per_candidate(tmp_path):
    path = tmp_path / "geo.jsonl"
    config = SynthConfig(seed=0, mode="geometric", num_images=4, candidates_per_image=1000)
    columns = write_dataset(generate_geometric_dataset(config), path)[1]
    for source in ("columns file", "JSON Lines"):
        if source == "JSON Lines":
            columns.unlink()
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dataset = read_dataset(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grown = len(gc.get_objects()) - objects
        n = sum(rec.num_candidates for rec in dataset.records)
        assert n == 4000 and dataset.feature_dim == 12
        # Two GC-tracked objects and 465 B per candidate when each was a Candidate and a Box.
        assert grown / n < 0.05, source
        assert retained / n <= 200, source
        del dataset


HEAD = '{"image_id": "im", "width": 8, "height": 8, "candidates": [{"box": [0, 0, 1, 1], '


@pytest.mark.parametrize("line, message", [
    (HEAD + '"iou_label": 0.5}, {"box": [0, 0, 2, 2], "iou_label": NaN}]}',
     "line 1: im: candidate 1 iou_label must lie in [0, 1], got nan"),
    (HEAD + '"features": [1.0, 2.0]}, {"box": [0, 0, 2, 2], "features": [1.0, NaN]}]}',
     "line 1: im: candidate 1 features contain non-finite values"),
    (HEAD + '"features": [NaN, NaN]}]}', "line 1: im: candidate 0 features contain non-finite values"),
])
def test_a_json_nan_label_or_feature_is_an_error_not_a_gap(line, message):
    with pytest.raises(DataError) as info:
        dataset_from_lines([line])
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The columns file


def _parsed(path):
    """read_dataset(path), and how many times it parsed JSON Lines."""
    with mock.patch.object(core, "dataset_from_lines", wraps=core.dataset_from_lines) as parse:
        dataset = read_dataset(path)
    return dataset, parse.call_count


def _json_read(path):
    """The dataset read_dataset gives from the JSON Lines alone: the columns
    file, if any, is moved aside for the read and put back."""
    columns = core.beside(path, core.COLUMNS_SUFFIX)
    aside = core.beside(path, ".aside")
    if columns.exists():
        columns.rename(aside)
    try:
        dataset, parses = _parsed(path)
    finally:
        if aside.exists():
            aside.rename(columns)
    assert parses == 1
    return dataset


def _geometric() -> Dataset:
    """A labeled geometric synth with a reranked record: a source_index, no
    labels and no features."""
    config = SynthConfig(seed=5, num_images=3, candidates_per_image=40, feature_dim=5, mode="geometric",
                         image_size=(64, 48))
    ds = label_dataset(generate_geometric_dataset(config))
    first = ds.records[0]
    cands = first.candidates
    ranked = replace(first, image_id="ranked", candidates=Candidates(cands.boxes[::-1], source_index=tuple(range(40))))
    return Dataset(ds.records + (ranked,))


def _mixed() -> Dataset:
    """Records without candidates, and labels, features and source_index on
    some records and not on others."""
    gt = (GroundTruthObject("cat", Box(0.5, 1.0, 6.0, 7.25)),)
    boxes = [[0, 0, 4, 4], [1, 1, 3, 3], [2, 0.5, 8, 8]]
    return Dataset((
        ImageRecord("empty", 8, 8),
        ImageRecord("groundtruth only", 8, 8, gt),
        record_from_columns("boxes only", 8, 8, (), boxes),
        record_from_columns("labels", 8, 8, gt, boxes, labels=[0.0, 1.0, 0.125]),
        record_from_columns("features", 8, 8, (), boxes, features=[[1.5, -0.0], [1e-300, 2.0], [3.0, 1e300]]),
        record_from_columns("sources", 8, 8, gt, boxes[:2], source_index=(7, 2**63 - 1)),
        record_from_columns("all", 9, 8, gt * 2, boxes[:1], labels=[0.5], features=[[0.25, 4.0]], source_index=[0]),
    ))


def _unicode() -> Dataset:
    """Ids and classes beyond ASCII, with NULs inside and at the end."""
    boxes = [[0, 0, 1, 1]]
    ids = ["é", "\x00", "a\x00\x00", "猫", "\U0001f408", " "]
    return Dataset(tuple(
        record_from_columns(image_id, 4, 4, (GroundTruthObject(image_id + "\x00", Box(0, 0, 2, 2)),), boxes)
        for image_id in ids
    ))


@pytest.mark.parametrize("build", [_geometric, _mixed, _unicode, lambda: Dataset()])
def test_a_dataset_reads_from_its_columns_file_as_from_its_json_lines(tmp_path, build):
    path = tmp_path / "d.jsonl"
    assert write_dataset(build(), path) == [path, core.beside(path, core.COLUMNS_SUFFIX)]
    got, parses = _parsed(path)
    assert parses == 0
    assert_same_reads(got, _json_read(path))
    assert_same_reads(got, read_dataset(path))


@pytest.mark.parametrize("record", [
    ImageRecord("big-size", 2**63, 8),
    replace(make_record("a", labels=[0.5]), candidates=Candidates([[0, 0, 1, 1]], source_index=(2**63,))),
    make_record("\ud800", labels=[0.5]),
    make_record("a", labels=[0.5], gts=[("\udc00", [0, 0, 1, 1])]),
])
def test_a_value_the_columns_file_cannot_hold_exactly_leaves_none(tmp_path, record):
    path = tmp_path / "d.jsonl"
    stale = write_dataset(_mixed(), path)[1]
    assert write_dataset(Dataset((record,)), path) == [path]
    assert not stale.exists()
    got, parses = _parsed(path)
    assert parses == 1
    assert core.dataset_to_lines(got) == core.dataset_to_lines(Dataset((record,)))


# The layout of a columns file, read here without core's reader: the magic,
# the header's byte length, the JSON header padded to 8 bytes, the arrays'
# bytes, and the CRC-32 of all of them.
MAGIC = b"PRCOLS\x00\x01"


def _layout(raw: bytes) -> tuple[dict, bytes]:
    """The header of a columns file and the bytes of its arrays."""
    assert raw[:8] == MAGIC
    start = 16 + int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:start]), raw[start:-4]


def _with_crc(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _framed(header, data: bytes) -> bytes:
    """A columns file of header and data with a valid CRC-32."""
    text = json.dumps(header).encode("ascii")
    text += b" " * (-len(text) % 8)
    return _with_crc(MAGIC + len(text).to_bytes(8, "little") + text + data)


def _unpadded(raw: bytes) -> bytes:
    """The columns file with a header not padded to 8 bytes, so that every
    array lies off its alignment."""
    header, data = _layout(raw)
    text = json.dumps(header).encode("ascii")
    text += b" " * (len(text) % 8 == 0)
    return _with_crc(MAGIC + len(text).to_bytes(8, "little") + text + data)


def _arrays(raw: bytes) -> dict[str, np.ndarray]:
    """Writable copies of the arrays of a columns file, in file order."""
    header, data = _layout(raw)
    return {name: np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape).copy()
            for name, (dtype, shape, offset) in header.items()}


def _saved(arrays: dict[str, np.ndarray]) -> bytes:
    """The bytes core's writer gives a columns file of arrays."""
    return b"".join(core._columns_file_chunks(arrays))


def _npz(arrays: dict[str, np.ndarray]) -> bytes:
    """The bytes np.savez writes of arrays: the columns file's previous layout."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _edited(edit):
    """The columns file with edit applied to its arrays, written again with a
    valid CRC-32, so that the array checks meet it."""
    def corrupt(raw: bytes) -> bytes:
        arrays = _arrays(raw)
        edit(arrays)
        return _saved(arrays)
    return corrupt


def _reheaded(edit):
    """The columns file with edit applied to its header, framed again with a
    valid CRC-32."""
    def corrupt(raw: bytes) -> bytes:
        header, data = _layout(raw)
        edit(header)
        return _framed(header, data)
    return corrupt


def _flipped_in_features(raw: bytes) -> bytes:
    """The columns file with the low byte of a feature flipped: the value
    stays finite and the header intact, so only the CRC-32 tells."""
    header, data = _layout(raw)
    at = len(raw) - 4 - len(data) + header["features"][2]
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]


def _first_record_alone(raw: bytes) -> bytes:
    """The columns file of _geometric()'s first record alone, recording the
    SHA-256 that raw records: each per-record array has one row."""
    return _saved(core._columns_file_arrays(Dataset(_geometric().records[:1]), _arrays(raw)["sha256"].tobytes()))


def _setitem(key, index, value):
    return lambda mapping: mapping[key].__setitem__(index, value)


CORRUPT = {
    "empty": lambda raw: b"",
    "no-magic": lambda raw: b"proprank" * 100,
    "another-version": lambda raw: _with_crc(MAGIC[:-1] + b"\x02" + raw[8:-4]),
    "the-old-npz-under-the-new-name": lambda raw: _npz(_arrays(raw)),
    **{f"truncated-to-{share}/8": (lambda share: lambda raw: raw[: len(raw) * share // 8])(share)
       for share in range(1, 8)},
    "a-flipped-byte": lambda raw: raw[:1000] + bytes([raw[1000] ^ 0xFF]) + raw[1001:],
    "a-flipped-byte-in-features": _flipped_in_features,
    "a-header-dtype-of-object": _reheaded(_setitem("ids", 0, "|O")),
    "a-big-endian-float-dtype": _reheaded(_setitem("features", 0, ">f8")),
    "a-missing-name": _reheaded(lambda h: h.pop("labels")),
    "a-header-that-is-a-list": lambda raw: _framed(list(_layout(raw)[0].items()), _layout(raw)[1]),
    "a-header-length-past-the-end": lambda raw: _with_crc(raw[:8] + len(raw).to_bytes(8, "little") + raw[16:-4]),
    "a-header-not-padded-to-8-bytes": _unpadded,
    "an-offset-not-a-multiple-of-8": _reheaded(lambda h: h["features"].__setitem__(2, h["features"][2] + 4)),
    "an-offset-past-the-end": lambda raw: _reheaded(_setitem("source_index", 2, len(_layout(raw)[1]) + 8))(raw),
    "an-array-past-the-end": _reheaded(lambda h: h["source_index"][1].__setitem__(0, h["source_index"][1][0] + 1)),
    # -1 would read the last array's own bytes to the end of the data
    "a-negative-length": _reheaded(lambda h: h["source_index"][1].__setitem__(0, -1)),
    "a-length-beyond-int64": _reheaded(lambda h: h["source_index"][1].__setitem__(0, 2**64)),
    # true == 1, the length it stands for here, but a length is a JSON integer
    "a-length-of-true": lambda raw: _reheaded(lambda h: h["sizes"][1].__setitem__(0, True))(_first_record_alone(raw)),
    "bytes-after-the-last-array": lambda raw: _framed(_layout(raw)[0], _layout(raw)[1] + bytes(8)),
    "an-extra-array": _edited(lambda a: a.update(extra=np.zeros(1))),
    "boxes-of-the-wrong-shape": _edited(lambda a: a.update(boxes=a["boxes"].reshape(-1, 2))),
    "features-of-the-wrong-axes": _edited(lambda a: a.update(features=a["features"].reshape(-1, 1))),
    "labels-of-two-axes": _edited(lambda a: a.update(labels=a["labels"].reshape(-1, 1))),
    "gt_boxes-of-3-columns": _edited(lambda a: a.update(gt_boxes=a["gt_boxes"][:, :3])),
    "gt_boxes-of-5-columns": _edited(lambda a: a.update(gt_boxes=np.hstack([a["gt_boxes"], a["gt_boxes"][:, :1]]))),
    "gt_boxes-of-4-rows-and-no-columns": _edited(lambda a: a.update(gt_boxes=np.zeros((4, 0)))),
    "sizes-of-3-columns": _edited(lambda a: a.update(sizes=np.hstack([a["sizes"], a["sizes"][:, :1]]))),
    "widths-of-2-columns": _edited(lambda a: a.update(widths=a["widths"][:, :2])),
    "a-label-short": _edited(lambda a: a.update(labels=a["labels"][:-1])),
    "a-label-too-many": _edited(lambda a: a.update(labels=np.append(a["labels"], 0.5))),
    "a-record-short": _edited(lambda a: a.update(sizes=a["sizes"][:-1])),
    "float-counts": _edited(lambda a: a.update(candidates=a["candidates"].astype(np.float64))),
    "a-label-out-of-range": _edited(_setitem("labels", 0, 2.0)),
    "a-duplicate-id": _edited(_setitem("ids", slice(None), ord("x"))),
    "an-id-not-utf-8": _edited(_setitem("ids", 0, 0xFF)),
    "no-sha256": _edited(lambda a: a.pop("sha256")),
    "another-sha256": _edited(lambda a: a["sha256"].__setitem__(0, a["sha256"][0] ^ 1)),
}


@pytest.mark.parametrize("name", list(CORRUPT))
def test_a_columns_file_that_does_not_build_the_dataset_is_passed_over(tmp_path, name):
    path = tmp_path / "d.jsonl"
    columns = write_dataset(_geometric(), path)[1]
    columns.write_bytes(CORRUPT[name](columns.read_bytes()))
    # An unclosed file warns when it is collected, which pytest's
    # filterwarnings does not see, so the warnings are recorded here.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        got, parses = _parsed(path)
        gc.collect()
    assert parses == 1
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert_same_reads(got, _json_read(path))


def test_a_columns_file_of_the_previous_layout_is_passed_over_and_removed(tmp_path):
    path = tmp_path / "d.jsonl"
    dataset = _geometric()
    columns = write_dataset(dataset, path)[1]
    core.beside(path, ".columns.npz").write_bytes(_npz(_arrays(columns.read_bytes())))
    columns.unlink()
    got, parses = _parsed(path)
    assert parses == 1
    assert_same_reads(got, _json_read(path))
    assert write_dataset(dataset, path) == [path, columns]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", columns.name]


def _table_arrays(**given) -> dict[str, np.ndarray]:
    """An array of each name of the columns file's table, of its dtype and
    trailing shape: the given one, or an empty one."""
    return {name: np.asarray(given.get(name, np.zeros((0, *tail))), dtype).reshape(-1, *tail)
            for name, (dtype, tail) in core._COLUMNS_FILE.items()}


_ANY_TABLE_ARRAYS = st.fixed_dictionaries({
    name: st.integers(0, 6).flatmap(lambda n, dtype=dtype, tail=tail: hnp.arrays(dtype, (n, *tail)))
    for name, (dtype, tail) in core._COLUMNS_FILE.items()
})


@settings(max_examples=80, deadline=None)
@given(_ANY_TABLE_ARRAYS)
@example(_table_arrays())
@example(_table_arrays(
    features=[-0.0, 0.0, 5e-324, -np.inf, np.nan, np.finfo(float).max],
    gt_boxes=[[-0.0, 1e-300, 1e300, 0.1]],
    source_index=[-2**63, 2**63 - 1, 0, -1],
    sizes=[[2**63 - 1, -2**63]],
    ids=[0, 255],
))
def test_the_columns_file_gives_back_the_bits_of_any_arrays_it_holds(arrays):
    raw = _saved(arrays)
    assert _framed(*_layout(raw)) == raw  # the layout, its padding and its CRC-32 as documented
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl.columns"
        path.write_bytes(raw)
        got = core._load_columns_file(path)
    assert list(got) == list(arrays)
    for name, array in arrays.items():
        assert (got[name].dtype, got[name].shape) == (array.dtype, array.shape), name
        assert got[name].tobytes() == array.tobytes(), name
        assert got[name].flags.aligned and not got[name].flags.writeable, name


def test_the_columns_file_is_little_endian_whatever_the_arrays_byte_order():
    # As on a big-endian host, whose native arrays are big-endian.
    arrays = _table_arrays(features=[1.5, -0.0], sizes=[[640, 480]], ids=[97])
    swapped = {name: array.astype(array.dtype.newbyteorder(">")) for name, array in arrays.items()}
    assert _saved(swapped) == _saved(arrays)


def test_a_stale_columns_file_is_passed_over_and_a_bad_line_still_named(tmp_path, caplog):
    path = tmp_path / "d.jsonl"
    dataset = _geometric()
    columns = write_dataset(dataset, path)[1]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    path.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")  # rewritten by hand, still valid
    got, parses = _parsed(path)
    assert parses == 1 and len(got) == 3
    assert_same_reads(got, _json_read(path))

    path.write_text("".join(lines[:2] + ["{not json\n"] + lines[3:]), encoding="utf-8")
    with pytest.raises(DataError, match=r"^line 3: invalid JSON \("):
        read_dataset(path)
    out = tmp_path / "out.jsonl"
    with caplog.at_level(logging.ERROR, logger="proprank"):
        assert main(["label", str(path), str(out)]) == 2
    assert caplog.messages[-1].startswith("line 3: invalid JSON (")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", columns.name]


# ---------------------------------------------------------------------------
# Copying the source's text


# Values whose text is easy to get wrong: both zeros, the least subnormal,
# and magnitudes repr writes in exponent form.
SPECIAL = [0.0, -0.0, 5e-324, 1e-7, 1e16, 0.1, 1.0]
# The image is large enough for every box, 1e16 included.
SIZE = 10**17
_text = st.text(st.characters(exclude_categories=("Cs",), include_characters='"\\é猫'), min_size=1, max_size=4)
_box = st.sampled_from(SPECIAL[:5]).flatmap(
    lambda x: st.sampled_from([v for v in SPECIAL if x + v > x]).map(lambda w: [x, -0.0, x + w, 1e16])
) | st.lists(st.floats(0, 1e3), min_size=2, max_size=2).map(lambda p: [p[0], p[1], p[0] + 1.5, p[1] + 1e-7])
_number = st.sampled_from([*SPECIAL, -1e16, -1e-7]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _derived_sources(draw):
    """A dataset whose boxes repeat with different features and whose labels
    and features hold the special values, with labels, features and
    source_index on some records only and records without candidates."""
    dim = draw(st.integers(1, 3))
    records = []
    for image_id in draw(st.lists(_text, max_size=4, unique=True)):
        n = draw(st.integers(0, 5))
        boxes = [draw(st.sampled_from([[0.0, 0.0, 1.0, 1.0], [-0.0, 0.0, 1.0, 1.0]]) | _box) for _ in range(n)]
        labels = draw(st.none() | st.lists(st.sampled_from(SPECIAL[:4] + SPECIAL[5:]) | st.floats(0, 1),
                                           min_size=n, max_size=n))
        features = draw(st.none() | st.lists(st.lists(_number, min_size=dim, max_size=dim), min_size=n, max_size=n))
        sources = draw(st.none() | st.lists(st.integers(0, 9), min_size=n, max_size=n))
        gts = draw(st.lists(st.tuples(_text, _box), max_size=2))
        groundtruth = tuple(GroundTruthObject(cls, Box(*box)) for cls, box in gts)
        records.append(record_from_columns(image_id, SIZE, SIZE, groundtruth, boxes, labels, features, sources))
    return Dataset(tuple(records))


def _transforms(draw, dataset: Dataset) -> dict[str, Dataset]:
    """What label, rerank and featurize make of dataset, the other changes
    to its columns and records a command may write, and boxes the source
    lacks, which no command writes yet."""
    records = dataset.records
    dim = draw(st.integers(1, 3))
    orders = [draw(st.lists(st.integers(0, max(rec.num_candidates - 1, 0)), max_size=6) if rec.num_candidates
                   else st.just([])) for rec in records]
    new = [draw(st.lists(st.lists(_number, min_size=dim, max_size=dim), min_size=rec.num_candidates,
                         max_size=rec.num_candidates)) for rec in records]
    kept = draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    moved = [np.array(draw(st.lists(st.booleans(), min_size=rec.num_candidates, max_size=rec.num_candidates)),
                      dtype=bool) for rec in records]
    return {
        "label": label_dataset(dataset),
        "rerank": Dataset(tuple(_reordered(rec, list(range(rec.num_candidates))[::-1]) for rec in records)),
        "permute, drop and repeat rows": Dataset(tuple(_reordered(rec, order) for rec, order in zip(records, orders))),
        "new features": Dataset(tuple(replace_column(rec, "features", f) for rec, f in zip(records, new))),
        "unchanged features": Dataset(tuple(
            replace_column(rec, "features", rec.candidates.features) for rec in records)),
        "no labels": Dataset(tuple(replace_column(rec, "labels", None) for rec in records)),
        "no features": Dataset(tuple(replace_column(rec, "features", None) for rec in records)),
        "new source_index": Dataset(tuple(
            replace_column(rec, "source_index", tuple(range(rec.num_candidates, 0, -1))) for rec in records)),
        "a subset of records": Dataset(tuple(rec for rec, keep in zip(records, kept) if keep)),
        "some boxes not in the source": Dataset(tuple(_grown(rec, m) for rec, m in zip(records, moved))),
    }


def _grown(rec: ImageRecord, mask: np.ndarray) -> ImageRecord:
    """rec with the boxes mask picks grown to the right and down, so that
    the source need not hold them; the other columns keep their rows."""
    c = rec.candidates
    boxes = c.boxes.copy()
    boxes[mask, 2:] = 2 * boxes[mask, 2:] + 1
    return replace(rec, candidates=Candidates(boxes, c.labels, c.features, c.source_index))


def _written(dataset: Dataset, path: Path, source: Dataset | None = None) -> bytes:
    write_dataset(dataset, path, source)
    return path.read_bytes()


@settings(max_examples=120, deadline=None)
@given(_derived_sources(), st.data())
def test_a_derived_dataset_is_written_in_the_same_bytes_with_its_source(dataset, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_dataset(dataset, tmp / "source.jsonl")
        source = read_dataset(tmp / "source.jsonl")
        assert source._source_path == tmp / "source.jsonl"
        assert core._copied_lines(source, source) is not None
        for name, derived in _transforms(data.draw, source).items():
            canonical = _written(derived, tmp / "plain.jsonl")
            assert _written(derived, tmp / "copied.jsonl", source) == canonical, name


def _labeled_source(tmp_path) -> tuple[Dataset, Path]:
    """A labeled geometric synth and a record of 0.5 labels, read back from
    its columns file, and the path of its JSON Lines."""
    path = tmp_path / "source.jsonl"
    half = make_record("halves", labels=[0.5, 0.5], cand_boxes=[[0, 0, 1, 1], [0, 0, 2, 2]])
    write_dataset(Dataset(_geometric().records + (half,)), path)
    return read_dataset(path), path


def test_a_derived_dataset_copies_its_sources_text(tmp_path, monkeypatch):
    source, _ = _labeled_source(tmp_path)
    built = copied_records(monkeypatch)
    for derived in (label_dataset(source), _reversed(source)):
        built.clear()
        copied = _written(derived, tmp_path / "copied.jsonl", source)
        assert len(built) == len(derived.records)
        assert copied == _written(derived, tmp_path / "plain.jsonl")


def _reversed(dataset: Dataset) -> Dataset:
    """What rerank writes of dataset for a model that reverses every order."""
    return Dataset(tuple(_reordered(rec, list(range(rec.num_candidates))[::-1]) for rec in dataset.records))


@pytest.mark.parametrize("change", ["rewrite the JSON Lines", "delete the columns file"])
def test_a_changed_source_is_not_copied(tmp_path, monkeypatch, change):
    # The JSON Lines are what the copy takes its text from, and it checks
    # their bytes; the columns file vouched for them at the read, and its
    # deletion since then changes nothing the copy relies on.
    source, path = _labeled_source(tmp_path)
    if change == "rewrite the JSON Lines":  # valid, but 0.5 is not its canonical text
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"iou_label": 0.5}', '"iou_label": 0.50}'), encoding="utf-8")
        assert path.read_text(encoding="utf-8") != text
    else:
        core.beside(path, core.COLUMNS_SUFFIX).unlink()
    built = copied_records(monkeypatch)
    ranked = _reversed(source)
    copied = _written(ranked, tmp_path / "copied.jsonl", source)
    assert len(built) == (0 if change == "rewrite the JSON Lines" else len(ranked.records))
    assert copied == _written(ranked, tmp_path / "plain.jsonl")
    assert b'"iou_label": 0.5, ' in copied and b'"iou_label": 0.50, ' not in copied


def test_a_line_rewritten_after_the_source_was_checked_is_not_copied(tmp_path, monkeypatch):
    source, path = _labeled_source(tmp_path)
    text = path.read_text(encoding="utf-8")
    plan = core._plan

    def rewrite_then_plan(*args):  # the columns file was checked; the write has not read the lines yet
        path.write_text(text.replace('"iou_label": 0.5}', '"iou_label": 1.5}'), encoding="utf-8")
        return plan(*args)

    monkeypatch.setattr(core, "_plan", rewrite_then_plan)
    ranked = _reversed(source)
    copied = _written(ranked, tmp_path / "copied.jsonl", source)
    assert path.read_text(encoding="utf-8") != text
    assert copied == _written(ranked, tmp_path / "plain.jsonl")
    assert b'"iou_label": 0.5, ' in copied and b'"iou_label": 1.5' not in copied


def test_a_hand_written_source_is_parsed_and_its_text_never_copied(tmp_path, monkeypatch):
    path, out = tmp_path / "hand.jsonl", tmp_path / "out.jsonl"
    path.write_text('{"image_id": "a", "width": 200, "height": 200, "candidates": '
                    '[{"box": [0, 0, 1e2, 1e2], "iou_label": 0.50, "features": [0.50, 1e2]}]}\n', encoding="utf-8")
    built = copied_records(monkeypatch)
    assert main(["label", str(path), str(out)]) == 0
    assert read_dataset(path)._source_path is None and built == []
    assert out.read_text(encoding="utf-8") == (
        '{"image_id": "a", "width": 200, "height": 200, "groundtruth": [], "candidates": '
        '[{"box": [0.0, 0.0, 100.0, 100.0], "iou_label": 0.0, "features": [0.5, 100.0]}]}\n')


def test_a_source_rewritten_during_the_pass_is_not_copied(tmp_path, monkeypatch):
    source, path = _labeled_source(tmp_path)
    text = path.read_text(encoding="utf-8")
    built = copied_records(monkeypatch)
    source_texts, lines = core._source_texts, []

    def rewrite_after_the_first_line(cands, line):  # longer, so the pass reads bytes it had not buffered
        if not lines:
            path.write_text(text.replace('"iou_label": 0.5}', '"iou_label": 0.50}'), encoding="utf-8")
        lines.append(line)
        return source_texts(cands, line)

    monkeypatch.setattr(core, "_source_texts", rewrite_after_the_first_line)
    ranked = _reversed(source)
    copied = _written(ranked, tmp_path / "copied.jsonl", source)
    assert lines and path.read_text(encoding="utf-8") != text
    assert built == []
    assert copied == _written(ranked, tmp_path / "plain.jsonl")
    assert b'"iou_label": 0.5, ' in copied and b'"iou_label": 0.50, ' not in copied


@pytest.mark.parametrize("records", ["one fewer", "one more"])
def test_a_source_of_one_record_more_or_fewer_than_lines_is_never_copied_from(tmp_path, monkeypatch, records):
    source, path = _labeled_source(tmp_path)
    extra = make_record("extra", labels=[0.5], cand_boxes=[[0, 0, 1, 1]])
    forged = Dataset(source.records[:-1] if records == "one fewer" else source.records + (extra,))
    arrays = core._columns_file_arrays(forged, bytes.fromhex(source.source_sha256))  # the lines' own SHA-256
    core.beside(path, core.COLUMNS_SUFFIX).write_bytes(_saved(arrays))
    source = read_dataset(path)
    assert source._source_path is not None and len(source) == len(forged)
    built = copied_records(monkeypatch)
    ranked = _reversed(source)
    copied = _written(ranked, tmp_path / "copied.jsonl", source)
    assert built == []
    assert copied == _written(ranked, tmp_path / "plain.jsonl")


def test_a_derived_write_opens_and_hashes_its_source_once(tmp_path, monkeypatch):
    source, path = _labeled_source(tmp_path)
    opened, hashed = [], []
    real_open, real_sha256 = io.open, hashlib.sha256

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    class CountedSha256:
        def __init__(self, data=b""):
            self.digest_ = real_sha256()
            self.update(data)

        def update(self, data):
            hashed.append(len(data))
            self.digest_.update(data)

        def digest(self):
            return self.digest_.digest()

        def hexdigest(self):
            return self.digest_.hexdigest()

    for module in (builtins, io):  # Path.open calls io.open
        monkeypatch.setattr(module, "open", counted_open)
    monkeypatch.setattr(hashlib, "sha256", CountedSha256)
    built = copied_records(monkeypatch)
    out = tmp_path / "copied.jsonl"
    write_dataset(_reversed(source), out, source)
    monkeypatch.undo()
    assert len(built) == len(source)
    assert [Path(file) for file in opened if isinstance(file, (str, Path))].count(path) == 1
    assert sum(hashed) == path.stat().st_size + out.stat().st_size  # the source's bytes and the output's, once each
