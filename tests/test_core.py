import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_record
from oracles import _iou_ref, pixel_iou
from proprank import (
    Box,
    DataError,
    Dataset,
    GroundTruthObject,
    ImageRecord,
    SynthConfig,
    dataset_digest,
    dataset_from_lines,
    dataset_to_lines,
    generate_geometric_dataset,
    iou_matrix,
    label_candidates,
    label_dataset,
    rank_by_label,
    read_dataset,
    write_dataset,
)
from proprank import core
from proprank.core import Candidates, record_from_columns, record_from_dict, record_to_dict, replace_column


def test_box_area_and_validation():
    b = Box(1.0, 2.0, 4.0, 7.0)
    # The 3 x 5 box inside a 10 x 10 square covers 15 of its 100 pixels.
    assert iou_matrix(b.as_list(), [0, 0, 10, 10])[0, 0] == 15.0 / 100.0
    assert b.as_list() == [1.0, 2.0, 4.0, 7.0]
    with pytest.raises(DataError):
        Box(0, 0, 0, 1)
    with pytest.raises(DataError):
        Box(0, 0, 1, -1)
    with pytest.raises(DataError):
        Box(0, 0, float("nan"), 1)
    with pytest.raises(DataError):
        Box(0, 0, float("inf"), 1)
    with pytest.raises(DataError, match="box has a non-numeric coordinate"):
        Box(0, 0, "x", 1)


def test_iou_hand_examples():
    # Two unit squares sharing half their area: inter 0.5, union 1.5.
    assert_allclose(iou_matrix([0, 0, 1, 1], [0.5, 0, 1.5, 1])[0, 0], 1.0 / 3.0)
    # Contained box: 1x1 inside 2x2.
    assert_allclose(iou_matrix([0, 0, 2, 2], [0, 0, 1, 1])[0, 0], 0.25)
    # Disjoint and edge-touching boxes have zero overlap.
    assert iou_matrix([0, 0, 1, 1], [2, 2, 3, 3])[0, 0] == 0.0
    assert iou_matrix([0, 0, 1, 1], [1, 0, 2, 1])[0, 0] == 0.0


def test_iou_degenerate_cases():
    b = [3.0, 5.0, 10.5, 9.25]
    assert iou_matrix(b, b)[0, 0] == 1.0
    assert iou_matrix([0, 0, 5, 5], [0, 0, 5, 5])[0, 0] == 1.0


def test_iou_symmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x0, y0 = rng.uniform(0, 50, size=2)
        a = [x0, y0, x0 + rng.uniform(1, 30), y0 + rng.uniform(1, 30)]
        x0, y0 = rng.uniform(0, 50, size=2)
        b = [x0, y0, x0 + rng.uniform(1, 30), y0 + rng.uniform(1, 30)]
        assert iou_matrix(a, b)[0, 0] == iou_matrix(b, a)[0, 0]
        assert 0.0 <= iou_matrix(a, b)[0, 0] <= 1.0


def test_iou_matches_pixel_enumeration_on_integer_boxes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x0, y0 = rng.integers(0, 20, size=2)
        a = [int(x0), int(y0), int(x0 + rng.integers(1, 15)), int(y0 + rng.integers(1, 15))]
        x0, y0 = rng.integers(0, 20, size=2)
        b = [int(x0), int(y0), int(x0 + rng.integers(1, 15)), int(y0 + rng.integers(1, 15))]
        assert_allclose(iou_matrix(a, b)[0, 0], pixel_iou(a, b), atol=1e-12)


def test_iou_matches_pixel_enumeration_on_fractional_grid():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.integers(0, 40, size=2)
        b = rng.integers(1, 30, size=2)
        box_a = [a[0] / 8, a[1] / 8, (a[0] + b[0]) / 8, (a[1] + b[1]) / 8]
        c = rng.integers(0, 40, size=2)
        d = rng.integers(1, 30, size=2)
        box_b = [c[0] / 8, c[1] / 8, (c[0] + d[0]) / 8, (c[1] + d[1]) / 8]
        assert_allclose(iou_matrix(box_a, box_b)[0, 0], pixel_iou(box_a, box_b, scale=8), atol=1e-12)


def test_iou_matrix_matches_reference_bitwise():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.uniform(0, 60, size=(int(rng.integers(1, 8)), 2))
        a = np.hstack([a, a + rng.uniform(0.5, 30, size=a.shape)])
        b = rng.uniform(0, 60, size=(int(rng.integers(1, 8)), 2))
        b = np.hstack([b, b + rng.uniform(0.5, 30, size=b.shape)])
        # Identical, edge-touching and disjoint partners of the first box.
        w, h = a[0, 2] - a[0, 0], a[0, 3] - a[0, 1]
        b = np.vstack([b, a[:1], a[:1] + [w, 0, w, 0], a[:1] + [0, h, 0, h], a[:1] + 100.0])
        got = iou_matrix(a, b)
        assert got.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert got[i, j] == _iou_ref(a[i].tolist(), b[j].tolist())
        assert got[0, len(b) - 4] == 1.0
        assert np.all(got[0, len(b) - 3:] == 0.0)


def test_iou_matrix_empty_shapes():
    boxes = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0]])
    assert iou_matrix(boxes, np.zeros((0, 4))).shape == (2, 0)
    assert iou_matrix(np.zeros((0, 4)), boxes).shape == (0, 2)


def _one_candidate(**columns):
    """A record of one candidate, the box [0, 0, 1, 1], with the given columns."""
    return record_from_columns("im", 4, 4, (), [[0, 0, 1, 1]], **columns)


def test_candidate_validation():
    for columns, message in (
        (dict(labels=[1.5]), "iou_label must lie in [0, 1], got 1.5"),
        (dict(labels=[-0.1]), "iou_label must lie in [0, 1], got -0.1"),
        (dict(features=[np.array([[1.0, 2.0]])]), "features must be a flat vector, got shape (1, 2)"),
        (dict(features=[np.array([1.0, np.nan])]), "features contain non-finite values"),
        (dict(source_index=[-1]), "source_index must be non-negative, got -1"),
        (dict(labels=[[0.5]]), "iou_label must be a number, got [0.5]"),
        (dict(features=[[[1.0], [1.0, 2.0]]]), "features must be a list of numbers"),
        (dict(features=[[]]), "features must not be empty"),
    ):
        with pytest.raises(DataError, match=f"^im: candidate 0 {re.escape(message)}$"):
            _one_candidate(**columns)
    label = _one_candidate(labels=[np.float64(0.5)]).iou_labels()[0]
    assert label == 0.5 and type(label) is float


def test_candidate_source_index_takes_the_decoders_integer_rule():
    for bad in (1.5, True, False, "3", [1]):
        message = f"im: candidate 0 source_index must be an integer, got {bad!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            _one_candidate(source_index=[bad])
    for bad, index in ((-1, -1), (-2.0, -2)):
        with pytest.raises(DataError, match=f"^im: candidate 0 source_index must be non-negative, got {index}$"):
            _one_candidate(source_index=[bad])
    for value, index in ((2.0, 2), (np.int64(3), 3), (0, 0)):
        got = _one_candidate(source_index=[value]).candidates.source_index
        assert got == (index,) and type(got[0]) is int
    # What the type accepts, the decoder reads back.
    rec = _one_candidate(source_index=[2.0])
    assert record_to_dict(rec)["candidates"][0]["source_index"] == 2
    assert dataset_from_lines(dataset_to_lines(Dataset((rec,)))).records[0].candidates.source_index == (2,)


def test_record_size_takes_the_decoders_integer_rule():
    box = Candidates([[0, 0, 1, 1]])
    for name, bad in (("width", 8.5), ("width", True), ("width", "8"), ("width", None), ("height", False)):
        size = {"width": 8, "height": 8, name: bad}
        message = f"a: {name} must be an integer, got {bad!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ImageRecord("a", **size, candidates=box)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            record_from_columns("a", **size, groundtruth=(), boxes=[[0, 0, 1, 1]])
    with pytest.raises(DataError, match="^a: image size must be positive$"):
        ImageRecord("a", 8, -1.0)
    for rec in (ImageRecord("a", 8.0, np.int64(8), (), box), record_from_columns("a", 8.0, 8, (), [[0, 0, 1, 1]])):
        assert (rec.width, rec.height) == (8, 8) and type(rec.width) is int and type(rec.height) is int
        # What the type accepts, the decoder reads back with the same digest.
        ds = Dataset((rec,))
        assert dataset_digest(dataset_from_lines(dataset_to_lines(ds))) == dataset_digest(ds)


def test_record_from_columns_builds_what_the_types_build():
    gts = (GroundTruthObject("cat", Box(1, 1, 8, 9)),)
    boxes = np.array([[0, 0, 8, 8], [2, 2, 16, 12], [0.5, 0.25, 1, 1]])
    feats = np.array([[0.5, -1.0], [2.0, 0.0], [1e300, -0.0]])
    rec = record_from_columns("im", 16, 12, gts, boxes, [0.5, 1, 0.0], feats, np.array([2, 0, 1]))
    expected = ImageRecord("im", 16, 12, gts, tuple(
        core._candidate(Box(*b), label, f, index)
        for b, label, f, index in zip(boxes.tolist(), [0.5, 1.0, 0.0], feats, [2, 0, 1])
    ))
    assert dataset_digest(Dataset((rec,))) == dataset_digest(Dataset((expected,)))
    assert rec.feature_dim == 2 and rec.groundtruth == gts
    for got, want in zip(rec.candidates, expected.candidates):
        assert got.boxes.tolist() == want.boxes.tolist() and got.labels.tolist() == want.labels.tolist()
        assert got.source_index == want.source_index and type(got.source_index[0]) is int
        # Each candidate's features are a row view of the one checked matrix.
        assert got.features.tobytes() == want.features.tobytes() and np.shares_memory(got.features, feats)
    table = rec.candidates
    assert table.boxes.tolist() == boxes.tolist() and table.labels.tolist() == [0.5, 1.0, 0.0]
    assert table.source_index == (2, 0, 1) and all(type(i) is int for i in table.source_index)
    # The columns are read-only, and so is every row's view of the feature matrix.
    for column in (table.boxes, table.labels, table.features, rec.features_matrix(), rec.candidates[0].features):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
    assert rec.features_matrix() is table.features and len(table) == 3 and len(list(table)) == 3
    assert table[-1].boxes.tolist() == [[0.5, 0.25, 1.0, 1.0]]
    for out_of_range in (3, -4):
        with pytest.raises(IndexError):
            table[out_of_range]
    empty = record_from_columns("e", 4, 4, (), np.zeros((0, 4)), np.zeros(0), np.zeros((0, 3)), np.zeros(0, int))
    assert empty.num_candidates == 0 and empty.feature_dim is None
    assert (empty.candidates.labels, empty.candidates.features, empty.candidates.source_index) == (None, None, None)
    # A column is complete or absent: one that some candidates lack names the first without and the first with it.
    two = [[0, 0, 1, 1], [1, 1, 2, 2]]
    for columns, message in (
        (([None, 0.5], [[1.0], None], [None, 3]), "m: candidate 0 has no iou_label, but candidate 1 has one"),
        ((None, [[1.0], None]), "m: candidate 1 has no features, but candidate 0 has one"),
        ((None, None, [None, 3]), "m: candidate 0 has no source_index, but candidate 1 has one"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            record_from_columns("m", 4, 4, (), two, *columns)


def test_a_candidate_is_a_read_only_one_row_view_of_the_columns():
    config = SynthConfig(seed=0, mode="geometric", num_images=1, candidates_per_image=30, image_size=(64, 48))
    synth = generate_geometric_dataset(config).records[0]
    rec = replace(synth, candidates=replace(synth.candidates, source_index=range(29, -1, -1)))
    table = rec.candidates
    for i in (0, 7, 29, -1, -30):
        row = table[i]
        assert len(row) == 1 and row.source_index == (29 - i % 30,)
        for name in ("boxes", "labels", "features"):
            column, whole = getattr(row, name), getattr(table, name)
            assert column.shape == (1, *whole.shape[1:]) and column[0].tobytes() == whole[i].tobytes()
            assert np.shares_memory(column, whole)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        assert row[0].boxes.tolist() == row[-1].boxes.tolist() == row.boxes.tolist()
    assert b"".join(c.features.tobytes() for c in table) == rec.features_matrix().tobytes()
    # Rows rebuilt with dataclasses.replace and joined by ImageRecord write what replace_column writes.
    for name in ("features", "labels"):
        rows = tuple(replace(c, **{name: None}) for c in table)
        joined = ImageRecord(rec.image_id, rec.width, rec.height, rec.groundtruth, rows)
        assert dataset_to_lines(Dataset((joined,))) == dataset_to_lines(Dataset((replace_column(rec, name, None),)))


def test_joined_tables_keep_the_column_rules_of_a_record():
    """Tables joined by ImageRecord are numbered by row, whatever their sizes."""
    box = [[0, 0, 1, 1]]
    one, two = Candidates(box, features=[[1.0]]), Candidates(box * 2, features=[[1.0], [2.0]])
    wide, labeled = Candidates(box, features=[[1.0, 2.0]]), Candidates(box, [0.5], [[1.0]], (3,))
    empty = Candidates(np.zeros((0, 4)))
    for tables, message in (
        ((two, wide), "m: candidate 2 has feature dimension 2, expected 1"),
        ((empty, one, labeled), "m: candidate 0 has no iou_label, but candidate 1 has one"),
        ((two, Candidates(box * 2)), "m: candidate 2 has no features, but candidate 0 has one"),
        ((replace(labeled, labels=None), empty, two), "m: candidate 1 has no source_index, but candidate 0 has one"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ImageRecord("m", 4, 4, (), tables)
    joined = ImageRecord("m", 4, 4, (), (empty, two, one)).candidates
    assert joined.features.tolist() == [[1.0], [2.0], [1.0]] and joined.labels is None
    assert joined.boxes.tolist() == box * 3 and not np.shares_memory(joined.features, two.features)
    assert ImageRecord("m", 4, 4, (), [empty]).num_candidates == ImageRecord("m", 4, 4).num_candidates == 0


def test_record_from_columns_fails_with_the_types_errors():
    box = [[0, 0, 2, 2]]
    gts = (GroundTruthObject("cat", Box(0, 0, 5, 13)),)
    for args, message in (
        (([[0, 0, 2, 2], [0, 0, 1, 1]], [0.5, 1.5]), "im: candidate 1 iou_label must lie in [0, 1], got 1.5"),
        (([[0, 0, 2, 2], [0, 0, 1, 1]], [0.5, np.nan]), "im: candidate 1 iou_label must lie in [0, 1], got nan"),
        (([[0, 0, 2, 2], [0, 0, 1, 1]], [-0.5, 1]), "im: candidate 0 iou_label must lie in [0, 1], got -0.5"),
        (([[0, 0, 2, 2], [3, 0, 1, 1]],), "im: candidate 1 box has non-positive extent: (3.0, 0.0, 1.0, 1.0)"),
        (([[0, 0, 2, 2], [1, 0, 1, 2]],), "im: candidate 1 box has non-positive extent: (1.0, 0.0, 1.0, 2.0)"),
        (([[0, 0, 2, 2], [0, 1, 2, 1]],), "im: candidate 1 box has non-positive extent: (0.0, 1.0, 2.0, 1.0)"),
        (([[-1, 0, 2, 2]],), "im: box [-1.0, 0.0, 2.0, 2.0] lies outside the 16x12 image"),
        (([[0, -0.5, 2, 2]],), "im: box [0.0, -0.5, 2.0, 2.0] lies outside the 16x12 image"),
        (([[0, 0, 2, 13]],), "im: box [0.0, 0.0, 2.0, 13.0] lies outside the 16x12 image"),
        (([[0, 0, np.inf, 2]],), "im: candidate 0 box has non-finite coordinates: (0.0, 0.0, inf, 2.0)"),
        (([[0, 0, 17, 2]],), "im: box [0.0, 0.0, 17.0, 2.0] lies outside the 16x12 image"),
        ((box, None, [[0.5, np.inf]]), "im: candidate 0 features contain non-finite values"),
        ((box, None, np.zeros((1, 0))), "im: candidate 0 features must not be empty"),
        ((box * 2, None, [[1.0], [np.nan]]), "im: candidate 1 features contain non-finite values"),
        ((box, None, None, [-1]), "im: candidate 0 source_index must be non-negative, got -1"),
        ((box, None, None, [0.5]), "im: candidate 0 source_index must be an integer, got 0.5"),
        ((box * 2, None, None, [0, False]), "im: candidate 1 source_index must be an integer, got False"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            record_from_columns("im", 16, 12, (), *args)
    with pytest.raises(DataError, match=re.escape("im: box [0.0, 0.0, 5.0, 13.0] lies outside the 16x12 image")):
        record_from_columns("im", 16, 12, gts, box)
    for image_id, width, boxes, message in (
        ("im", 0, box, "im: image size must be positive"),
        ("im", 0, np.zeros((0, 4)), "im: image size must be positive"),
        ("", 16, box, "record has an empty image_id"),
    ):
        with pytest.raises(DataError, match=f"^{message}$"):
            record_from_columns(image_id, width, 12, (), boxes)


@pytest.mark.parametrize("name, values", [
    ("labels", [0.5]),
    ("labels", [0.5, 0.7, 0.9]),
    ("features", [[1.0, 2.0]]),
    ("features", np.ones((3, 2))),
    ("source_index", [4]),
    ("source_index", (4, 5, 6)),
    ("labels", np.array([0.5, 0.7, 0.9])),
])
def test_record_from_columns_refuses_a_column_of_another_length(name, values):
    boxes = [[0, 0, 1, 1], [0, 0, 2, 2]]
    message = f"im: the {name} column has {len(values)} entries for 2 boxes"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        record_from_columns("im", 8, 8, (), boxes, **{name: values})
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        record_from_columns("im", 8, 8, (), np.array(boxes, dtype=np.float64), **{name: values})


def test_source_index_column_keeps_the_integer_rule():
    box = np.array([[0.0, 0.0, 1.0, 1.0]])
    for value, index in ((2.0, 2), (np.int64(3), 3), (7, 7), (2**64, 2**64)):
        for got in (record_from_columns("im", 8, 8, (), box, source_index=[value]).candidates.source_index,
                    Candidates(box, source_index=(value,)).source_index):
            assert got == (index,) and type(got[0]) is int
    for value, message in ((True, "an integer, got True"), (2.5, "an integer, got 2.5"), (-1, "non-negative, got -1")):
        with pytest.raises(DataError, match=f"^im: candidate 0 source_index must be {message}$"):
            record_from_columns("im", 8, 8, (), box, source_index=[value])
        with pytest.raises(DataError, match="^candidate source_index column breaks the candidate rules$"):
            Candidates(box, source_index=(value,))


def test_a_candidates_table_checks_its_columns():
    ok = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])
    for columns in (
        dict(boxes=np.array([[0, 0, np.nan, 1.0]]), source_index=(-1,)),
        dict(boxes=ok, source_index=(0, -1)),
        dict(boxes=ok, source_index=(0, True)),
        dict(boxes=ok, labels=np.array([0.5, 1.5])),
        dict(boxes=ok, labels=np.array([0.5])),
        dict(boxes=ok, features=np.array([[1.0, np.nan], [1.0, 2.0]])),
        dict(boxes=ok[:, :3]),
        # No value stands for a candidate without one: not NaN, not None.
        dict(boxes=ok, labels=np.array([np.nan, 0.5])),
        dict(boxes=ok, features=np.array([[np.nan] * 2, [1.0, 2.0]])),
        dict(boxes=ok, source_index=(None, 2**64)),
    ):
        with pytest.raises(DataError, match="column breaks the candidate rules"):
            ImageRecord("a", 8, 8, (), Candidates(**columns))
    # A caller's NaN is an error through replace_column too.
    rec = record_from_columns("im", 8, 8, (), ok, [0.5, 0.5], [[1.0], [2.0]])
    for name, values in (("labels", [0.5, np.nan]), ("features", [[np.nan], [1.0]])):
        with pytest.raises(DataError, match=f"^candidate {name} column breaks the candidate rules$"):
            replace_column(rec, name, np.array(values))
    with pytest.raises(DataError, match="^candidate labels column breaks the candidate rules$"):
        replace_column(rec, "labels", [0.5, 1.5])
    assert replace_column(rec, "labels", [1.0, 0.0]).iou_labels() == [1.0, 0.0]


def test_record_rejects_out_of_bounds_boxes():
    with pytest.raises(DataError, match="im-1"):
        ImageRecord("im-1", 10, 10, (), Candidates([[5, 5, 11, 9]]))
    with pytest.raises(DataError):
        ImageRecord("im-2", 10, 10, (GroundTruthObject("cat", Box(-1, 0, 5, 5)),), ())
    # Boxes touching the image border are fine.
    ImageRecord("im-3", 10, 10, (), Candidates([[0, 0, 10, 10]]))


def test_record_label_and_feature_accessors():
    rec = make_record("r", labels=[0.2, 0.9], feats=[[1.0, 2.0], [3.0, 4.0]])
    assert rec.iou_labels() == [0.2, 0.9]
    assert rec.features_matrix().shape == (2, 2)
    partial = ImageRecord("r2", 5, 5, (), Candidates([[0, 0, 1, 1]]))
    with pytest.raises(DataError, match="r2: candidate 0"):
        partial.iou_labels()
    with pytest.raises(DataError, match="has no features"):
        partial.features_matrix()
    empty = ImageRecord("r3", 5, 5)
    assert empty.features_matrix().shape == (0, 0)


def test_dataset_duplicate_ids_and_dim_inference():
    rec = make_record("same", labels=[0.1], feats=[[1.0, 2.0]])
    rec2 = make_record("same", labels=[0.1], feats=[[1.0, 2.0]])
    with pytest.raises(DataError, match="duplicate"):
        Dataset((rec, rec2))
    ds = Dataset((rec,))
    assert ds.feature_dim == 2
    bad = make_record("other", labels=[0.5], feats=[[1.0, 2.0, 3.0]])
    with pytest.raises(DataError, match="other: candidates have feature dimension 3, expected 2"):
        Dataset((rec, bad))
    with pytest.raises(DataError, match="mixed: candidate 1 has feature dimension 3, expected 2"):
        make_record("mixed", labels=[0.1, 0.2], feats=[[1.0, 2.0], [1.0, 2.0, 3.0]])
    assert ds.get("same") is rec
    with pytest.raises(KeyError):
        ds.get("missing")


def test_label_candidates_max_over_groundtruth():
    rec = make_record(
        "lab",
        labels=None,
        feats=None,
        gts=[("cat", [0, 0, 10, 10]), ("dog", [20, 20, 40, 40])],
        cand_boxes=[[0, 0, 10, 10], [0, 0, 20, 20], [20, 20, 40, 40], [60, 60, 70, 70]],
    )
    labeled = label_candidates(rec)
    labels = labeled.iou_labels()
    assert labels[0] == 1.0
    assert_allclose(labels[1], 0.25)  # covers cat entirely at 4x the area
    assert labels[2] == 1.0
    assert labels[3] == 0.0
    # Existing labels are recomputed, not trusted.
    stale = make_record("stale", labels=[0.77], gts=[], cand_boxes=[[0, 0, 5, 5]])
    assert label_candidates(stale).iou_labels() == [0.0]


def test_label_dataset_preserves_order_and_dim():
    rec = make_record("a", labels=None, feats=[[1.0], [2.0]], gts=[("cat", [0, 0, 4, 4])],
                      cand_boxes=[[0, 0, 4, 4], [4, 4, 8, 8]])
    ds = label_dataset(Dataset((rec,)))
    assert ds.feature_dim == 1
    assert ds.records[0].iou_labels() == [1.0, 0.0]
    assert_allclose(ds.records[0].features_matrix(), [[1.0], [2.0]])


def test_rank_by_label_descending_and_stable():
    rec = make_record("rk", labels=[0.3, 0.9, 0.3, 1.0, 0.0])
    assert rank_by_label(rec) == [3, 1, 0, 2, 4]
    ties = make_record("tie", labels=[0.5, 0.5, 0.5])
    assert rank_by_label(ties) == [0, 1, 2]


def test_jsonl_round_trip_is_exact(tmp_path):
    rec = make_record(
        "rt-1",
        labels=[0.12345678901234567, 1.0],
        feats=[[1.5, -2.25], [0.1, 0.3]],
        gts=[("cat", [0.5, 1.5, 20.25, 30.75])],
        cand_boxes=[[0, 0, 10, 10], [5, 5, 15, 15]],
    )
    rec2 = ImageRecord("rt-2", 100, 100, (), Candidates([[1, 1, 2, 2]], source_index=(4,)))
    ds = Dataset((rec, rec2))
    lines = dataset_to_lines(ds)
    back = dataset_from_lines(lines)
    assert dataset_to_lines(back) == lines
    assert back.records[0].iou_labels() == [0.12345678901234567, 1.0]
    assert back.records[1].candidates.source_index == (4,)
    assert back.feature_dim == 2
    assert dataset_digest(back) == dataset_digest(ds)
    path = tmp_path / "ds.jsonl"
    assert write_dataset(ds, path) == [path, core.beside(path, core.COLUMNS_SUFFIX)]
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.jsonl", "ds.jsonl" + core.COLUMNS_SUFFIX]


def test_a_read_dataset_is_named_by_the_bytes_it_was_parsed_from(tmp_path):
    # Valid but not canonical: extra spaces, another key order, 0.50 for 0.5.
    text = '{ "width": 8,  "height": 8, "image_id": "a", "candidates": [ {"iou_label": 0.50, "box": [1, 1, 3, 3]} ] }\n\n'
    path = tmp_path / "hand.jsonl"
    path.write_text(text, encoding="utf-8")
    ds = read_dataset(path)
    assert ds.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert dataset_digest(ds) != ds.source_sha256
    assert dataset_digest(ds) == hashlib.sha256("".join(x + "\n" for x in dataset_to_lines(ds)).encode()).hexdigest()
    built = dataset_from_lines(text.splitlines())
    assert built.source_sha256 is None and dataset_digest(built) == dataset_digest(ds)


def test_a_dataset_is_serialized_for_its_digest_at_most_once(tmp_path, monkeypatch):
    calls = []
    to_lines = core.dataset_to_lines
    monkeypatch.setattr(core, "dataset_to_lines", lambda ds, *source: calls.append(ds) or to_lines(ds, *source))
    ds = Dataset((make_record("once", labels=[0.5, 1.0], feats=[[1.0], [2.0]]),))
    first = dataset_digest(ds)
    assert dataset_digest(ds) == first and calls == [ds]
    written = Dataset(ds.records)
    write_dataset(written, tmp_path / "w.jsonl")
    assert len(calls) == 2
    assert dataset_digest(written) == first and len(calls) == 2
    assert read_dataset(tmp_path / "w.jsonl").source_sha256 == first


def test_a_derived_dataset_inherits_neither_hash(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(Dataset((make_record("d", labels=[0.5], feats=[[1.0]]),)), path)
    ds = read_dataset(path)
    dataset_digest(ds)
    relabeled = tuple(replace_column(rec, "labels", [0.25]) for rec in ds.records)
    for derived in (replace(ds, records=relabeled), Dataset(ds.records)):
        assert derived.source_sha256 is None and derived._digest is None
    assert dataset_digest(replace(ds, records=relabeled)) != dataset_digest(ds)


def test_jsonl_reader_ignores_unknown_fields_and_blank_lines():
    line = json.dumps(
        {
            "image_id": "x",
            "width": 10,
            "height": 10,
            "score": 0.9,
            "groundtruth": [{"class": "cat", "box": [0, 0, 5, 5], "difficult": True}],
            "candidates": [{"box": [1, 1, 3, 3], "junk": [1, 2]}],
        }
    )
    ds = dataset_from_lines(["", line, "   "])
    assert len(ds) == 1
    assert ds.records[0].groundtruth[0].class_label == "cat"
    assert ds.records[0].candidates.labels is None


def test_jsonl_errors_carry_line_numbers():
    good = json.dumps({"image_id": "ok", "width": 4, "height": 4})
    with pytest.raises(DataError, match="line 2: invalid JSON"):
        dataset_from_lines([good, "{not json"])
    with pytest.raises(DataError, match="line 3: .*missing required field"):
        dataset_from_lines([good, "", json.dumps({"image_id": "bad", "width": 4})])
    with pytest.raises(DataError, match="line 1: .*width"):
        dataset_from_lines([json.dumps({"image_id": "f", "width": 4.5, "height": 4})])


def test_jsonl_cross_record_errors_carry_line_numbers():
    line = {"image_id": "a", "width": 4, "height": 4, "candidates": [{"box": [0, 0, 1, 1], "features": [1.0]}]}
    other = {**line, "image_id": "b", "candidates": [{"box": [0, 0, 1, 1], "features": [1.0, 2.0]}]}
    with pytest.raises(DataError, match="^line 3: duplicate image_id: a$"):
        dataset_from_lines([json.dumps(line), "", json.dumps(line)])
    same_dim = {**line, "image_id": "b"}
    with pytest.raises(DataError, match="^line 5: duplicate image_id: a$"):  # not the decode error after it
        dataset_from_lines([json.dumps(line), "", json.dumps(same_dim), "", json.dumps(line), "", "{not json"])
    with pytest.raises(DataError, match="^line 2: b: candidates have feature dimension 2, expected 1$"):
        dataset_from_lines([json.dumps(line), json.dumps(other)])


def test_record_dict_rejects_malformed_pieces():
    base = {"image_id": "m", "width": 8, "height": 8}
    with pytest.raises(DataError, match="groundtruth 0"):
        record_from_dict({**base, "groundtruth": [{"class": "cat"}]})
    with pytest.raises(DataError, match="candidate 0"):
        record_from_dict({**base, "candidates": [{"iou_label": 0.5}]})
    with pytest.raises(DataError, match="4-element"):
        record_from_dict({**base, "candidates": [{"box": [1, 2, 3]}]})
    with pytest.raises(DataError, match="non-numeric"):
        record_from_dict({**base, "candidates": [{"box": [1, 2, 3, "x"]}]})
    with pytest.raises(DataError, match="width"):
        record_from_dict({"image_id": "m", "width": True, "height": 8})
    with pytest.raises(DataError, match="m: groundtruth must be a list"):
        record_from_dict({**base, "groundtruth": 5})
    with pytest.raises(DataError, match="m: candidates must be a list"):
        record_from_dict({**base, "candidates": 5})
    box = [1, 1, 3, 3]
    for label in ("x", [1]):
        with pytest.raises(DataError, match="candidate 0 iou_label must be a number"):
            record_from_dict({**base, "candidates": [{"box": box, "iou_label": label}]})
    for feats in (["a"], {"a": 1}):
        with pytest.raises(DataError, match="candidate 0 features must be a list of numbers"):
            record_from_dict({**base, "candidates": [{"box": box, "features": feats}]})
    # An entry that is not an object with a box fails at its own index, after
    # any earlier candidate's own error.
    for cands, message in (
        ([5], "m: candidate 0 needs a 'box' field"),
        ([{"iou_label": 0.5}], "m: candidate 0 needs a 'box' field"),
        ([{"box": box, "iou_label": 2}, 5], "m: candidate 0 iou_label must lie in [0, 1], got 2.0"),
        ([{"box": box}, "x", {"box": [0, 0, 0, 1]}], "m: candidate 1 needs a 'box' field"),
        # A string is never read as a number.
        ([{"box": box, "iou_label": "0.5"}], "m: candidate 0 iou_label must be a number, got '0.5'"),
        ([{"box": [0, 0, "1", 1]}], "m: candidate 0 box has a non-numeric coordinate"),
        ([{"box": box, "features": ["1", "2"]}], "m: candidate 0 features must be a list of numbers"),
        ([{"box": box, "features": [1, "2"]}], "m: candidate 0 features must be a list of numbers"),
        # A column is on every candidate or on none, checked after every value.
        ([{"box": box}, {"box": box, "iou_label": 0.5}], "m: candidate 0 has no iou_label, but candidate 1 has one"),
        ([{"box": box, "source_index": 0}, {"box": box, "iou_label": 2}],
         "m: candidate 1 iou_label must lie in [0, 1], got 2.0"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            record_from_dict({**base, "candidates": cands})
    for gt, message in (
        ({"class": None, "box": box}, "m: groundtruth 0 class must be a string, got None"),
        ({"class": 5, "box": box}, "m: groundtruth 0 class must be a string, got 5"),
        ({"class": [], "box": box}, "m: groundtruth 0 class must be a string, got []"),
        ({"class": "cat", "box": [0, 0, "1", 1]}, "m: groundtruth 0 box has a non-numeric coordinate"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            record_from_dict({**base, "groundtruth": [gt]})
    rec = record_from_dict({**base, "width": 8.0})
    assert rec.width == 8


def test_record_to_dict_field_layout():
    rec = make_record("layout", labels=[0.5], feats=[[1.0]], gts=[("cat", [0, 0, 2, 2])],
                      cand_boxes=[[1, 1, 3, 3]])
    obj = record_to_dict(rec)
    assert list(obj) == ["image_id", "width", "height", "groundtruth", "candidates"]
    assert obj["groundtruth"][0] == {"class": "cat", "box": [0.0, 0.0, 2.0, 2.0]}
    assert obj["candidates"][0]["iou_label"] == 0.5
    assert "source_index" not in obj["candidates"][0]
