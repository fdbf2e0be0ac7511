"""A record keeps its candidates as columns, and a NaN inside them is an error."""

import gc
import tracemalloc

import pytest

from proprank import DataError, SynthConfig, dataset_from_lines, generate_geometric_dataset, read_dataset, write_dataset


def test_a_read_dataset_stores_no_object_per_candidate(tmp_path):
    path = tmp_path / "geo.jsonl"
    config = SynthConfig(seed=0, mode="geometric", num_images=4, candidates_per_image=1000)
    write_dataset(generate_geometric_dataset(config), path)
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
    assert grown / n < 0.05
    assert retained / n <= 200


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
