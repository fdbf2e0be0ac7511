"""The codec lanes: JSON Lines encoded and decoded in forked children give the
caller's bytes and errors at every lane count, and leave no process behind."""

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

import pytest

from proprank import DataError, Dataset, SynthConfig, generate_geometric_dataset
from proprank import core
from proprank.core import dataset_digest, dataset_from_lines, dataset_to_lines, read_dataset, write_dataset


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
        # Earlier tests may have started the HOG lane threads, which live on;
        # here the gate reads the process as single-threaded, as a fresh one is.
        monkeypatch.setattr(threading, "active_count", lambda: 1)

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


def test_the_codec_does_not_fork_beside_a_thread_or_below_the_break_even_size(monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    big = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=500, mode="geometric"))
    small = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=8, mode="geometric"))
    assert sum(map(core._values, small.records)) <= core._FORK_MIN_VALUES < sum(map(core._values, big.records))
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        dataset_from_lines(dataset_to_lines(big))
    finally:
        done.set()
        thread.join()
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    dataset_from_lines(dataset_to_lines(small))
    assert not forks


def test_a_fresh_process_forks_its_codec_lanes(tmp_path):
    # The HOG lane threads of earlier tests close the thread gate in this
    # process for good, so the open gate is checked in a new interpreter.
    script = textwrap.dedent("""
        import os, sys
        from proprank import SynthConfig, core, generate_geometric_dataset
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
        dataset = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=500, mode="geometric"))
        core._usable_cpus = lambda: 1
        core.write_dataset(dataset, sys.argv[1] + "/serial.jsonl")
        serial = core.read_dataset(sys.argv[1] + "/serial.jsonl")
        core._usable_cpus = lambda: 2
        core.write_dataset(dataset, sys.argv[1] + "/laned.jsonl")
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
