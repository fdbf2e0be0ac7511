"""Shared builders for hand-made test datasets."""

from __future__ import annotations

from proprank import Box, Dataset, GroundTruthObject
from proprank.core import record_from_columns


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
