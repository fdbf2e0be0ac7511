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
import logging
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert write_dataset(build(), path) == [path, tmp_path / "d.jsonl.columns.npz"]
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


def _saved(save, *args, **kwargs) -> bytes:
    """The bytes np.save or np.savez writes of its arguments."""
    buffer = io.BytesIO()
    save(buffer, *args, **kwargs)
    return buffer.getvalue()


def _edited(edit):
    """The columns file with edit applied to its arrays."""
    def corrupt(raw: bytes) -> bytes:
        with np.load(io.BytesIO(raw)) as npz:
            arrays = dict(npz)
        edit(arrays)
        return _saved(np.savez, **arrays)
    return corrupt


CORRUPT = {
    "empty": lambda raw: b"",
    "not-a-zip": lambda raw: b"proprank" * 100,
    "a-lone-npy": lambda raw: _saved(np.save, np.zeros(3)),
    **{f"truncated-to-{share}/8": (lambda share: lambda raw: raw[: len(raw) * share // 8])(share)
       for share in range(1, 8)},
    "a-flipped-byte": lambda raw: raw[:1000] + bytes([raw[1000] ^ 0xFF]) + raw[1001:],
    "an-object-array": _edited(lambda a: a.update(ids=np.array(list(a["ids"]), dtype=object))),
    "boxes-of-the-wrong-shape": _edited(lambda a: a.update(boxes=a["boxes"].reshape(-1, 2))),
    "features-of-the-wrong-axes": _edited(lambda a: a.update(features=a["features"].reshape(-1, 1))),
    "a-label-short": _edited(lambda a: a.update(labels=a["labels"][:-1])),
    "a-label-too-many": _edited(lambda a: a.update(labels=np.append(a["labels"], 0.5))),
    "a-record-short": _edited(lambda a: a.update(sizes=a["sizes"][:-1])),
    "float-counts": _edited(lambda a: a.update(candidates=a["candidates"].astype(np.float64))),
    "a-label-out-of-range": _edited(lambda a: a["labels"].__setitem__(0, 2.0)),
    "a-duplicate-id": _edited(lambda a: a["ids"].__setitem__(slice(None), ord("x"))),
    "an-id-not-utf-8": _edited(lambda a: a["ids"].__setitem__(0, 0xFF)),
    "no-sha256": _edited(lambda a: a.pop("sha256")),
    "another-sha256": _edited(lambda a: a["sha256"].__setitem__(0, a["sha256"][0] ^ 1)),
}


@pytest.mark.parametrize("name", list(CORRUPT))
def test_a_columns_file_that_does_not_build_the_dataset_is_passed_over(tmp_path, name):
    path = tmp_path / "d.jsonl"
    columns = write_dataset(_geometric(), path)[1]
    columns.write_bytes(CORRUPT[name](columns.read_bytes()))
    got, parses = _parsed(path)
    assert parses == 1
    assert_same_reads(got, _json_read(path))


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
    assert built == []
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
    core.beside(path, core.COLUMNS_SUFFIX).write_bytes(_saved(np.savez, **arrays))
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
