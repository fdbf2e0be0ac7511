"""A record keeps its candidates as columns, and a NaN inside them is an error.
A dataset read back from the columns file beside its JSON Lines is the one
the JSON Lines give, and any columns file that does not match them is
passed over for them."""

import gc
import io
import logging
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import assert_same_reads, make_record
from proprank import (Box, DataError, Dataset, GroundTruthObject, ImageRecord, SynthConfig, dataset_from_lines,
                      generate_geometric_dataset, label_dataset, read_dataset, write_dataset)
from proprank import core
from proprank.cli import main
from proprank.core import Candidates, record_from_columns


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
