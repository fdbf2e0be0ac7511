"""The codec lanes: JSON Lines encoded and decoded in forked children give the
caller's bytes and errors at every lane count, and leave no process behind.
They fork beside the HOG lane threads, which they join first, but beside no
other thread."""

from __future__ import annotations

import errno
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import copied_records
from proprank import (DataError, Dataset, GrayImage, HogConfig, SynthConfig, featurize_dataset,
                      generate_geometric_dataset)
from proprank import core, features
from proprank.core import (dataset_digest, dataset_from_lines, dataset_to_lines, read_dataset, replace_column,
                           write_dataset)


@pytest.fixture
def forks(monkeypatch):
    """The list of os.fork calls made while the test runs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def lanes(monkeypatch):
    """lanes(n) opens every gate of the codec lanes at n usable CPUs."""

    def set_lanes(n: int) -> None:
        monkeypatch.setattr(core, "_usable_cpus", lambda: n)
        monkeypatch.setattr(core, "_FORK_MIN_VALUES", -1)  # every round of lines forks

    return set_lanes


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dataset(records: int) -> Dataset:
    synth = generate_geometric_dataset(SynthConfig(seed=3, num_images=max(records, 1), candidates_per_image=5,
                                                   mode="geometric", feature_dim=3))
    rows = list(synth.records[:records])
    if rows:  # one record as rerank writes it, with a source_index column
        cands = rows[0].candidates
        rows[0] = replace(rows[0], candidates=replace(cands, source_index=tuple(range(len(cands))[::-1])))
    return Dataset(tuple(rows))


def _with_blank_lines(lines: list[str]) -> bytes:
    return b"\n" + b"".join(line.encode() + b"\n   \n" for line in lines)


def _hog_threads() -> list[threading.Thread]:
    """The live threads of the HOG lane pool, found by their name."""
    return [thread for thread in threading.enumerate() if thread.name.startswith("proprank-hog")]


def _featurized(monkeypatch) -> Dataset:
    """A 1080-d HOG set above _FORK_MIN_VALUES, described on two HOG lanes,
    whose threads are left running."""
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    config = SynthConfig(seed=4, num_images=2, candidates_per_image=2 * features._CHUNK_BOXES, mode="geometric",
                         image_size=(64, 48))
    synth = generate_geometric_dataset(config)
    rng = np.random.default_rng(4)
    images = {rec.image_id: GrayImage(rec.width, rec.height, rng.random((rec.height, rec.width)))
              for rec in synth.records}
    dataset, failures = featurize_dataset(synth, images, HogConfig())
    assert not failures and sum(map(core._values, dataset.records)) > core._FORK_MIN_VALUES
    assert _hog_threads()
    return dataset


@pytest.mark.parametrize("records", [0, 1, 2, 5])
def test_lines_files_and_digests_match_at_every_lane_count(tmp_path, lanes, forks, records):
    lanes(1)
    lines = dataset_to_lines(_dataset(records))
    (tmp_path / "in.jsonl").write_bytes(_with_blank_lines(lines))
    write_dataset(_dataset(records), tmp_path / "serial.jsonl")
    serial = read_dataset(tmp_path / "in.jsonl")
    expected = (lines, (tmp_path / "serial.jsonl").read_bytes(), dataset_digest(_dataset(records)),
                dataset_to_lines(serial), serial.source_sha256)
    assert not forks
    for n in (2, 3, 64):
        lanes(n)
        write_dataset(_dataset(records), tmp_path / "laned.jsonl")
        read = read_dataset(tmp_path / "in.jsonl")
        got = (dataset_to_lines(_dataset(records)), (tmp_path / "laned.jsonl").read_bytes(),
               dataset_digest(_dataset(records)), dataset_to_lines(read), read.source_sha256)
        assert got == expected
        assert all(not rec.candidates.boxes.flags.writeable for rec in read.records)
        _no_child_left()
    # Five maps at each count: two encodes, a digest, a read and its encode.
    assert len(forks) == 5 * sum(max(min(n, records) - 1, 0) for n in (2, 3, 64))


def _lines_of(records: list[tuple[str, int]]) -> list[str]:
    """One line per (image_id, feature dimension)."""
    return [
        '{"image_id": "%s", "width": 8, "height": 8, "candidates": [{"box": [0, 0, 1, 1], "features": %s}]}'
        % (image_id, [0.5] * dim)
        for image_id, dim in records
    ]


@pytest.mark.parametrize("lines, message", [
    # A decode error in the last child's share.
    (_lines_of([("a", 2), ("b", 2), ("c", 2)]) + ["{not json"],
     r"^line 7: invalid JSON \(Expecting property name enclosed in double quotes\)$"),
    # A duplicate id in the last share, before a decode error in it.
    (_lines_of([("a", 2), ("b", 2), ("a", 2)]) + ["{not json"], "^line 5: duplicate image_id: a$"),
    (_lines_of([("a", 2), ("b", 2), ("c", 3), ("d", 2)]), "^line 5: c: candidates have feature dimension 3, expected 2$"),
])
def test_the_first_error_in_line_order_is_raised_at_every_lane_count(lanes, forks, lines, message):
    text = [line for pair in zip(lines, [""] * len(lines)) for line in pair]  # a blank line after each
    for n in (1, 3):
        lanes(n)
        with pytest.raises(DataError, match=message):
            dataset_from_lines(text)
        _no_child_left()
    assert forks


def test_no_child_is_left_after_a_success_or_an_error(lanes, forks):
    lanes(3)
    good = _lines_of([("a", 2), ("b", 2), ("c", 2)])
    assert len(dataset_from_lines(good)) == 3
    _no_child_left()
    for bad in (["{not json"] + good, good + ["{not json"]):  # the caller's share, a child's share
        with pytest.raises(DataError, match="invalid JSON"):
            dataset_from_lines(bad)
        _no_child_left()
    assert len(forks) == 6


def test_a_share_whose_child_fails_or_is_not_forked_is_computed_by_the_caller(lanes, forks, monkeypatch):
    dataset = _dataset(5)
    lanes(1)
    expected = dataset_to_lines(dataset), dataset_to_lines(dataset_from_lines(dataset_to_lines(dataset)))

    def short(obj, file, protocol=None):
        file.write(pickle.dumps(obj, protocol)[:-3])

    for child in (lambda *args, **kwargs: os._exit(3), short):
        monkeypatch.setattr(pickle, "dump", child)  # only a child pickles
        lanes(3)
        assert (dataset_to_lines(dataset), dataset_to_lines(dataset_from_lines(dataset_to_lines(dataset)))) == expected
        _no_child_left()
    assert len(forks) == 16

    def no_process_to_spare():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process_to_spare)
    assert (dataset_to_lines(dataset), dataset_to_lines(dataset_from_lines(dataset_to_lines(dataset)))) == expected
    _no_child_left()


def test_the_codec_does_not_fork_beside_a_thread_or_below_the_break_even_size(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    featurized = _featurized(monkeypatch)
    hog_threads = _hog_threads()
    big = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=500, mode="geometric"))
    small = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=8, mode="geometric"))
    assert sum(map(core._values, small.records)) <= core._FORK_MIN_VALUES < sum(map(core._values, big.records))
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        dataset_from_lines(dataset_to_lines(big))
        write_dataset(featurized, tmp_path / "featurized.jsonl")
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert _hog_threads() == hog_threads  # beside a thread the codec joins no HOG lane either
    dataset_from_lines(dataset_to_lines(small))
    assert not forks


def test_a_fresh_process_forks_its_codec_lanes(tmp_path):
    # The open gate checked in a new interpreter too, with none of pytest's
    # fixtures and no thread that an earlier test started.
    script = textwrap.dedent("""
        import os, sys
        from proprank import SynthConfig, core, generate_geometric_dataset
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
        dataset = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=500, mode="geometric"))
        core._usable_cpus = lambda: 1
        # Each read parses the JSON Lines: the columns file beside them is removed first.
        os.remove(core.write_dataset(dataset, sys.argv[1] + "/serial.jsonl")[1])
        serial = core.read_dataset(sys.argv[1] + "/serial.jsonl")
        core._usable_cpus = lambda: 2
        os.remove(core.write_dataset(dataset, sys.argv[1] + "/laned.jsonl")[1])
        laned = core.read_dataset(sys.argv[1] + "/laned.jsonl")
        assert (laned.source_sha256, core.dataset_to_lines(laned)) == (serial.source_sha256, core.dataset_to_lines(serial))
        assert len(forks) == 4, forks
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("ok")
    """)
    src = str(Path(core.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
    assert (tmp_path / "serial.jsonl").read_bytes() == (tmp_path / "laned.jsonl").read_bytes()


def test_a_featurized_set_is_digested_and_written_on_the_codec_lanes(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    dataset = _featurized(monkeypatch)
    write_dataset(dataset, tmp_path / "serial.jsonl")
    serial = dataset_digest(dataset), (tmp_path / "serial.jsonl").read_bytes()
    assert not forks and _hog_threads()
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    digest = dataset_digest(_featurized(monkeypatch))  # a new Dataset, whose digest is not cached
    assert len(forks) == 1 and not _hog_threads()
    write_dataset(_featurized(monkeypatch), tmp_path / "laned.jsonl")
    assert len(forks) == 2 and not _hog_threads()
    assert (digest, (tmp_path / "laned.jsonl").read_bytes()) == serial
    _no_child_left()


def test_the_hog_lanes_describe_the_same_bytes_after_the_codec_joined_them(monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    dataset = _featurized(monkeypatch)
    dataset_digest(dataset)
    assert forks and not _hog_threads()
    again = _featurized(monkeypatch)  # starts the pool again
    assert [rec.candidates.features.tobytes() for rec in again.records] == \
        [rec.candidates.features.tobytes() for rec in dataset.records]


def test_a_small_read_leaves_the_hog_lanes_running(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    _featurized(monkeypatch)
    hog_threads = _hog_threads()
    write_dataset(_dataset(5), tmp_path / "small.jsonl")
    assert len(read_dataset(tmp_path / "small.jsonl")) == 5
    assert not forks
    assert _hog_threads() == hog_threads


def test_a_derived_write_that_formats_enough_numbers_copies_its_source_and_forks(tmp_path, lanes, forks, monkeypatch):
    write_dataset(_dataset(4), tmp_path / "source.jsonl")
    source = read_dataset(tmp_path / "source.jsonl")
    featurized = Dataset(tuple(replace_column(rec, "features", rec.candidates.features + 0.5) for rec in source.records))
    serial = dataset_to_lines(featurized)
    built = copied_records(monkeypatch)
    lanes(2)
    assert dataset_to_lines(featurized, source) == serial
    assert len(forks) == 1 and len(built) == 4  # each line's boxes and labels copied, its features formatted
    _no_child_left()
