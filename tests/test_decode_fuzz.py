"""Fuzzing of the JSON decoding boundary: malformed input is a DataError, never a crash.

Each example takes a valid document, replaces one value at any depth with an
arbitrary JSON value, and decodes the result. The replacements are biased
towards numbers beyond float range and towards nesting deeper than the JSON
parser allows, the two shapes that escaped as OverflowError and RecursionError.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from proprank import DataError, SynthConfig, TrainingConfig, dataset_from_lines, generate_feature_dataset
from proprank.core import decode_json
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
FRAGMENTS = st.one_of(_values, _beyond_float, _deep)


def _paths(value, prefix=()):
    """Every position in a JSON value: the root, each dict key and each list index."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _with_fragment(document, path, fragment: str) -> str:
    """JSON text of the document with the value at path replaced by a raw JSON fragment."""
    copy = json.loads(json.dumps(document))
    if not path:
        return fragment
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _HOLE
    return json.dumps(copy).replace(json.dumps(_HOLE), fragment)


def _valid_model() -> dict:
    ds, _ = generate_feature_dataset(SynthConfig(seed=3, num_images=2, candidates_per_image=4, feature_dim=2))
    obj = model_to_dict(train_soft_margin(ds, TrainingConfig(k=1, epochs=3)))
    obj["hog_config"] = {"resize_w": 8, "resize_h": 8, "cell_size": 4}
    return obj


MODEL = _valid_model()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(RECORD))), FRAGMENTS)
def test_dataset_line_with_any_value_replaced_decodes_or_raises_data_error(path, fragment):
    line = _with_fragment(RECORD, path, fragment)
    try:
        dataset_from_lines(["", line])
    except DataError as exc:
        assert str(exc).startswith("line 2: ")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(MODEL))), FRAGMENTS)
def test_model_file_with_any_value_replaced_decodes_or_raises_data_error(path, fragment):
    raw = _with_fragment(MODEL, path, fragment).encode("utf-8")
    try:
        decode_json(raw, model_from_dict, "model.json", "model")
    except DataError as exc:
        assert str(exc).startswith("model.json: ")
