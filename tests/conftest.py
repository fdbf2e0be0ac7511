"""Shared builders for hand-made test datasets."""

from __future__ import annotations

from proprank import Box, Dataset, GroundTruthObject, core
from proprank.core import dataset_to_lines, record_from_columns


def make_record(image_id, labels=None, feats=None, gts=(), cand_boxes=None, size=(100, 100)):
    """Record with placeholder boxes unless real geometry is supplied.

    labels and feats may each be None; gts is a list of (class_label, box
    4-list); cand_boxes, when given, must align with labels/feats.
    """
    width, height = size
    if cand_boxes is None:
        n = len(labels) if labels is not None else (len(feats) if feats is not None else 0)
        cand_boxes = [[0.0, 0.0, 1.0, 1.0]] * n
    groundtruth = tuple(GroundTruthObject(cls, Box(*b)) for cls, b in gts)
    return record_from_columns(image_id, width, height, groundtruth, cand_boxes, labels, feats)


def make_dataset(instance, prefix="img"):
    """Dataset from a list of (labels, feats) pairs (oracles.random_instance)."""
    records = [
        make_record(f"{prefix}-{j}", labels=labels, feats=feats)
        for j, (labels, feats) in enumerate(instance)
    ]
    return Dataset(tuple(records))


def assert_same_reads(got: Dataset, want: Dataset) -> None:
    """got and want read alike: the same lines, source_sha256 and
    feature_dim, the same dtype, shape and read-only flag of every candidate
    column, and source_index values that are Python ints."""
    assert dataset_to_lines(got) == dataset_to_lines(want)
    assert (got.source_sha256, got.feature_dim) == (want.source_sha256, want.feature_dim)
    for a, b in zip(got.records, want.records, strict=True):
        assert a.groundtruth == b.groundtruth
        for name in ("boxes", "labels", "features"):
            columns = getattr(a.candidates, name), getattr(b.candidates, name)
            assert len({None if c is None else (c.dtype, c.shape, c.flags.writeable) for c in columns}) == 1
            assert columns[0] is None or not columns[0].flags.writeable
        assert a.candidates.source_index == b.candidates.source_index
        assert all(type(i) is int for i in a.candidates.source_index or ())


def copied_records(monkeypatch) -> list:
    """The source records, as candidates, whose line's text dataset_to_lines
    copies from: those whose texts its pass over the source's JSON Lines
    took from their line, in a pass that found the whole file intact."""
    built, taken = [], []
    source_texts, copied_lines = core._source_texts, core._copied_lines

    def texts_spy(source, line):
        texts = source_texts(source, line)
        if texts is not None:
            taken.append(source)
        return texts

    def lines_spy(dataset, source):
        taken.clear()
        lines = copied_lines(dataset, source)
        if lines is not None:
            built.extend(taken)
        return lines

    monkeypatch.setattr(core, "_source_texts", texts_spy)
    monkeypatch.setattr(core, "_copied_lines", lines_spy)
    return built
