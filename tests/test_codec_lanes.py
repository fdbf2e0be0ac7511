"""The codec lanes: JSON Lines encoded in forked children give the caller's
bytes at every lane count, and leave no process behind; JSON Lines are
decoded in the caller, which forks nothing. The lanes fork beside the HOG
lane threads, which they join first, but beside no other thread. Training an
in-memory set descends on one such lane while the caller digests the set,
and gives the same model at every CPU count."""

from __future__ import annotations

import errno
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_reads, copied_records, make_record
from proprank import (Dataset, GrayImage, HogConfig, NumericError, SynthConfig, TrainingConfig,
                      featurize_dataset, generate_feature_dataset, generate_geometric_dataset, train_full_rank_baseline,
                      train_soft_margin)
from proprank import core, features, ranking
from proprank.core import dataset_digest, dataset_to_lines, read_dataset, replace_column, write_dataset


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
        monkeypatch.setattr(core, "_FORK_MIN_VALUES", -1)  # every encode forks

    return set_lanes


@pytest.fixture
def descents(monkeypatch):
    """The list of descents the caller ran: a forked child's entry dies with it."""
    calls = []
    descend = ranking._descend

    def counted(*args):
        calls.append(1)
        return descend(*args)

    monkeypatch.setattr(ranking, "_descend", counted)
    return calls


def _no_process_to_spare():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


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
    # Four maps at each count: two encodes, a digest and the read's encode; the read forks none.
    assert len(forks) == 4 * sum(max(min(n, records) - 1, 0) for n in (2, 3, 64))


def test_a_share_whose_child_fails_or_is_not_forked_is_computed_by_the_caller(lanes, forks, monkeypatch):
    dataset = _dataset(5)
    lanes(1)
    expected = dataset_to_lines(dataset)

    def short(obj, file, protocol=None):
        file.write(pickle.dumps(obj, protocol)[:-3])

    for child in (lambda *args, **kwargs: os._exit(3), short):
        monkeypatch.setattr(pickle, "dump", child)  # only a child pickles
        lanes(3)
        assert dataset_to_lines(dataset) == expected
        _no_child_left()
    assert len(forks) == 4
    monkeypatch.setattr(os, "fork", _no_process_to_spare)
    assert dataset_to_lines(dataset) == expected
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
        dataset_to_lines(big)
        write_dataset(featurized, tmp_path / "featurized.jsonl")
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert _hog_threads() == hog_threads  # beside a thread the codec joins no HOG lane either
    dataset_to_lines(small)
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
        assert len(forks) == 1, forks  # the write's second lane
        laned = core.read_dataset(sys.argv[1] + "/laned.jsonl")
        assert len(forks) == 1, forks  # the read decodes in the caller
        assert (laned.source_sha256, core.dataset_to_lines(laned)) == (serial.source_sha256, core.dataset_to_lines(serial))
        assert len(forks) == 3, forks  # one for each encode compared
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
    # A large read parses its JSON Lines in the caller too.
    big = generate_geometric_dataset(SynthConfig(num_images=4, candidates_per_image=500, mode="geometric"))
    assert sum(map(core._values, big.records)) > core._FORK_MIN_VALUES
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    write_dataset(big, tmp_path / "big.jsonl")[1].unlink()
    serial = read_dataset(tmp_path / "big.jsonl")
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    _featurized(monkeypatch)
    hog_threads = _hog_threads()
    write_dataset(_dataset(5), tmp_path / "small.jsonl")
    assert len(read_dataset(tmp_path / "small.jsonl")) == 5
    parsed = read_dataset(tmp_path / "big.jsonl")
    assert not forks
    assert _hog_threads() == hog_threads
    assert_same_reads(parsed, serial)


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


# ---------------------------------------------------------------------------
# Training beside the digest

# Above both gates: 64 x 20 candidates at d = 16 carry 26,880 numbers, and 64
# epochs visit an image 4096 times.
_CONFIG = TrainingConfig(k=3, epochs=64, convergence_tol=0.0)

TRAINERS = {
    "per-image-slack": lambda dataset: train_soft_margin(dataset, _CONFIG),
    "per-row-slack": lambda dataset: train_soft_margin(dataset, replace(_CONFIG, per_image_slack=False)),
    "all-pairs": lambda dataset: train_full_rank_baseline(dataset, _CONFIG),
}


def _trainable() -> Dataset:
    """A new in-memory set, whose digest is still to be computed."""
    dataset = generate_feature_dataset(SynthConfig(seed=5, num_images=64, candidates_per_image=20, feature_dim=16,
                                                   noise_sigma=0.1))[0]
    assert sum(map(core._values, dataset.records)) > core._FORK_MIN_VALUES
    assert _CONFIG.epochs * len(dataset) >= ranking._FORK_MIN_STEPS
    return dataset


def _bits(model) -> tuple:
    """Everything a model holds but the time it was created."""
    provenance = {key: value for key, value in model.provenance.items() if key != "created"}
    return (model.weights.tobytes(), model.final_objective, model.objective_history, model.violation_report,
            model.training_config, provenance)


@pytest.mark.parametrize("trainer", TRAINERS)
def test_a_model_and_its_provenance_are_the_same_bits_at_one_and_two_cpus(monkeypatch, forks, descents, trainer):
    train = TRAINERS[trainer]
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    serial = _bits(train(_trainable()))
    assert not forks and len(descents) == 1
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    assert _bits(train(_trainable())) == serial
    assert "dataset_digest" in serial[-1] and np.any(np.frombuffer(serial[0]) != 0.0)
    assert len(forks) == 2 and len(descents) == 1  # the descent's lane and a codec lane; the child descended
    _no_child_left()


def _exits_1(*args, **kwargs):
    os._exit(1)


def _is_killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", ["exits 1", "is killed", "cannot be forked"])
def test_a_descent_whose_child_fails_is_run_by_the_caller(monkeypatch, forks, descents, child):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    serial = _bits(train_soft_margin(_trainable(), _CONFIG))
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    if child == "cannot be forked":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    else:  # only a child pickles
        monkeypatch.setattr(pickle, "dump", _exits_1 if child == "exits 1" else _is_killed)
    descents.clear()
    assert _bits(train_soft_margin(_trainable(), _CONFIG)) == serial
    assert len(descents) == 1
    _no_child_left()


def test_an_error_in_the_digest_kills_and_reaps_the_descending_child(monkeypatch, forks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ranking, "_descend", lambda *args: time.sleep(60))  # the child is still descending

    def failed_digest(dataset):
        raise RuntimeError("no digest")

    monkeypatch.setattr(ranking, "dataset_digest", failed_digest)
    statuses, waitpid = [], os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(RuntimeError, match="no digest"):
        train_soft_margin(_trainable(), _CONFIG)
    assert len(forks) == 1 and len(statuses) == 1
    assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
    _no_child_left()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_non_finite_descent_raises_the_same_error_at_one_and_two_cpus(monkeypatch, lanes, forks, descents):
    monkeypatch.setattr(ranking, "_FORK_MIN_STEPS", 1)
    errors = []
    for n in (1, 2):
        lanes(n)
        with pytest.raises(NumericError) as raised:
            train_soft_margin(Dataset((make_record("blow", labels=[1.0, 0.0], feats=[[1e200], [-1e200]]),)),
                              TrainingConfig(k=1, epochs=3))
        errors.append(str(raised.value))
        _no_child_left()
    assert errors == ["objective became non-finite at epoch 0"] * 2
    assert len(forks) == 1 and len(descents) == 2  # the child failed, so the caller descended too


def test_training_a_featurized_set_joins_the_hog_lanes_before_it_forks(monkeypatch, forks, descents):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    dataset = _featurized(monkeypatch)
    config = TrainingConfig(k=2, epochs=ranking._FORK_MIN_STEPS // len(dataset), convergence_tol=0.0)
    model = train_soft_margin(dataset, config)
    assert len(forks) == 2 and not descents and not _hog_threads()
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    assert _bits(train_soft_margin(Dataset(dataset.records), config)) == _bits(model)
    _no_child_left()


def test_a_short_descent_or_a_set_named_without_a_digest_is_not_forked(tmp_path, monkeypatch, forks, descents):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    # hog-online's training set: 4 x 100 at d = 1080, 200 epochs of 4 visits.
    hog_sized = generate_feature_dataset(SynthConfig(seed=6, num_images=4, candidates_per_image=100, feature_dim=1080))[0]
    train_soft_margin(hog_sized, TrainingConfig(k=10, epochs=200))
    assert len(forks) == 1 and len(descents) == 1  # the digest's codec lane only
    digested = _trainable()
    dataset_digest(digested)
    write_dataset(_trainable(), tmp_path / "set.jsonl")
    read = read_dataset(tmp_path / "set.jsonl")  # from the columns file beside it, with its source_sha256
    forks.clear()
    for dataset in (digested, read):
        train_soft_margin(dataset, _CONFIG)
    assert not forks and len(descents) == 3
    _no_child_left()


def test_a_second_training_on_the_same_set_forks_nothing(monkeypatch, forks, descents):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    dataset = _trainable()
    first = train_soft_margin(dataset, _CONFIG)
    assert len(forks) == 2 and not descents
    assert _bits(train_soft_margin(dataset, _CONFIG)) == _bits(first)
    assert len(forks) == 2 and len(descents) == 1
    _no_child_left()
