import errno
import functools
import hashlib
import json
import logging
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import copied_records
from proprank import Dataset, dataset_digest, load_model, rank_by_label, read_dataset, write_dataset
from proprank import core
from proprank.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_usage_errors_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["train"]) == 1
    assert main(["synth", "out.jsonl", "--mode", "bogus"]) == 1
    assert main(["synth", "out.jsonl", "--objects", "1,2,3"]) == 1
    assert main(["train", "in.jsonl", "model.json", "--mode", "hard"]) == 1
    capsys.readouterr()


def test_synth_writes_dataset_metadata_and_manifest(tmp_path, capsys):
    out = tmp_path / "feats.jsonl"
    code, _ = run(capsys, "synth", out, "--seed", 4, "--num-images", 5,
                  "--candidates", 8, "--feature-dim", 5)
    assert code == 0
    ds = read_dataset(out)
    assert len(ds) == 5
    assert ds.feature_dim == 5
    meta = json.loads((tmp_path / "feats.jsonl.meta.json").read_text())
    assert "Philox" in meta["prng"]["generator"]
    assert len(meta["planted_weight"]) == 5
    manifest = json.loads((tmp_path / "feats.jsonl.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["outputs"] == [str(out), str(out) + ".columns.npz", str(out) + ".meta.json"]
    assert manifest["version"]


def test_label_is_idempotent_on_geometric_data(tmp_path, capsys):
    raw = tmp_path / "geo.jsonl"
    run(capsys, "synth", raw, "--mode", "geometric", "--seed", 6,
        "--num-images", 4, "--candidates", 20)
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    assert run(capsys, "label", raw, once)[0] == 0
    assert run(capsys, "label", once, twice)[0] == 0
    assert once.read_bytes() == twice.read_bytes()
    # Labels were already the true overlaps, so relabeling changed nothing.
    assert once.read_bytes() == raw.read_bytes()


def test_train_rerank_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    run(capsys, "synth", data, "--seed", 8, "--num-images", 10, "--candidates", 15,
        "--feature-dim", 6)
    model_path = tmp_path / "model.json"
    code, _ = run(capsys, "train", data, model_path, "--k", 3, "--epochs", 60)
    assert code == 0
    model = load_model(model_path)
    assert model.feature_dim == 6
    assert model.final_objective <= 10.0  # zero-weight objective C*N
    baseline_path = tmp_path / "baseline.json"
    assert run(capsys, "train", data, baseline_path, "--k", 3, "--epochs", 5, "--constraints", "full")[0] == 0
    assert load_model(baseline_path).training_config.per_image_slack is False

    ranked1 = tmp_path / "ranked1.jsonl"
    ranked2 = tmp_path / "ranked2.jsonl"
    assert run(capsys, "rerank", data, ranked1, "--model", model_path)[0] == 0
    assert run(capsys, "rerank", ranked1, ranked2, "--model", model_path)[0] == 0
    assert ranked1.read_bytes() == ranked2.read_bytes()
    ranked = read_dataset(ranked1)
    for orig, new in zip(read_dataset(data).records, ranked.records):
        assert sorted(new.candidates.source_index) == list(range(orig.num_candidates))
        scores = new.features_matrix() @ model.weights
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_eval_and_report_round_trip(tmp_path, capsys):
    data = tmp_path / "geo.jsonl"
    run(capsys, "synth", data, "--mode", "geometric", "--seed", 12,
        "--num-images", 6, "--candidates", 25)
    model_path = tmp_path / "model.json"
    run(capsys, "train", data, model_path, "--k", 4, "--epochs", 40)
    ranked = tmp_path / "ranked.jsonl"
    run(capsys, "rerank", data, ranked, "--model", model_path)

    out_base = tmp_path / "cmp"
    code, text = run(capsys, "eval", data, ranked, "--output", out_base,
                     "--budgets", "1,5,10", "--thresholds", "0.5,0.7")
    assert code == 0
    txt_file = (tmp_path / "cmp.txt").read_text()
    assert text == txt_file
    assert "IoU > 0.5" in text and "IoU > 0.7" in text
    csv_lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "metric,delta,budget,source,value"
    assert len(csv_lines) == 1 + 2 * (2 * 3 + 3)

    code, rendered = run(capsys, "report", tmp_path / "cmp.json")
    assert code == 0
    assert rendered == text

    code, again = run(capsys, "eval", data, data, "--budgets", "1,5",
                      "--thresholds", "0.5", "--label-a", "x", "--label-b", "y")
    assert code == 0
    rows = [l for l in again.split("\n") if l.startswith(("x", "y"))]
    assert rows[0].split()[1:] == rows[1].split()[1:]


def test_eval_takes_the_order_of_a_file_without_source_index_and_rejects_foreign_boxes(tmp_path, capsys, caplog):
    data = tmp_path / "geo.jsonl"
    run(capsys, "synth", data, "--mode", "geometric", "--seed", 0, "--num-images", 4, "--candidates", 1000)
    dataset = read_dataset(data)

    def sorted_by_label(name, with_source_index, shrink=False):
        """The dataset with each image's candidates sorted by iou_label; shrink
        takes half a pixel off the bottom of candidate 5 of the first image."""
        records = []
        for rec in dataset.records:
            order, cands = rank_by_label(rec), rec.candidates
            boxes = cands.boxes[order]
            if shrink and not records:
                boxes[5, 3] -= 0.5
            sources = tuple(order) if with_source_index else None
            table = core.Candidates(boxes, cands.labels[order], cands.features[order], sources)
            records.append(replace(rec, candidates=table))
        path = tmp_path / name
        write_dataset(Dataset(tuple(records)), path)
        return path

    def detection_rates(path):
        out = tmp_path / "ev"
        code, _ = run(capsys, "eval", data, path, "--output", out, "--thresholds", "0.7", "--budgets", "10")
        assert code == 0
        return [source["dr"][0]["value"] for source in json.loads((tmp_path / "ev.json").read_text())["sources"]]

    # Without source_index the file's own order used to be scored as the source order (0.0).
    plain = detection_rates(sorted_by_label("plain.jsonl", False))
    assert plain == detection_rates(sorted_by_label("indexed.jsonl", True))
    assert plain[1] == 100.0 and plain[0] < plain[1]

    # A box that is not the dataset's, with or without source_index, is exit 2 and writes nothing.
    image_id = dataset.records[0].image_id
    for with_source_index in (False, True):
        foreign = sorted_by_label("foreign.jsonl", with_source_index, shrink=True)
        out = tmp_path / "foreign"
        assert main(["eval", str(data), str(foreign), "--output", str(out)]) == 2
        assert caplog.messages[-1].startswith(f"{image_id}: candidate 5 box [")
        assert caplog.messages[-1].endswith("does not match the dataset's candidates")
        assert sorted(p.name for p in tmp_path.glob("foreign*")) == ["foreign.jsonl", "foreign.jsonl.columns.npz"]
    capsys.readouterr()


def make_pgm(path, width, height, seed):
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, 256, size=width * height, dtype=np.uint8)
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode() + raster.tobytes())


def test_featurize_attaches_hog_and_train_uses_sidecar(tmp_path, capsys):
    images = tmp_path / "imgs"
    images.mkdir()
    records = []
    for j in range(3):
        make_pgm(images / f"im-{j}.pgm", 16, 16, seed=j)
        records.append({
            "image_id": f"im-{j}",
            "width": 16,
            "height": 16,
            "groundtruth": [{"class": "cat", "box": [2, 2, 10, 10]}],
            "candidates": [
                {"box": [2, 2, 10, 10]},
                {"box": [1, 1, 12, 14]},
                {"box": [8, 8, 16, 16]},
            ],
        })
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    labeled = tmp_path / "labeled.jsonl"
    assert run(capsys, "label", raw, labeled)[0] == 0
    feat = tmp_path / "feat.jsonl"
    code, _ = run(capsys, "featurize", labeled, feat, "--images", images,
                  "--resize-w", 16, "--resize-h", 16, "--cell-size", 8)
    assert code == 0
    ds = read_dataset(feat)
    assert ds.feature_dim == 1 * 1 * 2 * 2 * 9
    meta = json.loads((tmp_path / "feat.jsonl.meta.json").read_text())
    assert meta["hog_config"]["resize_w"] == 16

    model_path = tmp_path / "hogmodel.json"
    assert run(capsys, "train", feat, model_path, "--k", 1, "--epochs", 10)[0] == 0
    saved = json.loads(model_path.read_text())
    assert saved["hog_config"]["resize_w"] == 16
    assert load_model(model_path).hog_config is not None

    assert run(capsys, "rerank", feat, tmp_path / "ranked.jsonl", "--model", model_path)[0] == 0


def test_featurize_drops_the_features_of_a_record_it_cannot_describe(tmp_path, capsys, caplog):
    # Both geometries give 108-d features, so no dimension check tells them
    # apart: a record whose image is gone must not keep the first geometry's.
    images = tmp_path / "imgs"
    images.mkdir()
    data, first, second = tmp_path / "geo.jsonl", tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert run(capsys, "synth", data, "--mode", "geometric", "--num-images", 2, "--candidates", 12,
               "--image-size", "32,32")[0] == 0
    ids = [rec.image_id for rec in read_dataset(data).records]
    for j, image_id in enumerate(ids):
        make_pgm(images / f"{image_id}.pgm", 32, 32, seed=j)
    assert run(capsys, "featurize", data, first, "--images", images, "--resize-w", 32, "--resize-h", 16)[0] == 0
    (images / f"{ids[0]}.pgm").unlink()
    caplog.clear()
    assert run(capsys, "featurize", first, second, "--images", images, "--resize-w", 16, "--resize-h", 32)[0] == 0
    assert [m for m in caplog.messages if "image not found" in m] == [f"featurize: {ids[0]}: image not found"]
    records = read_dataset(second).records
    assert records[0].candidates.features is None and records[1].candidates.features is not None


def test_featurize_refuses_an_image_whose_size_is_not_the_records(tmp_path, capsys, caplog):
    # The boxes are in the record's coordinates, so an image of another size
    # would be described from the wrong region; it used to pass unreported.
    images = tmp_path / "imgs"
    images.mkdir()
    data, feat = tmp_path / "geo.jsonl", tmp_path / "feat.jsonl"
    assert run(capsys, "synth", data, "--mode", "geometric", "--num-images", 2, "--candidates", 12,
               "--image-size", "64,48")[0] == 0
    ids = [rec.image_id for rec in read_dataset(data).records]
    make_pgm(images / f"{ids[0]}.pgm", 64, 48, seed=0)
    make_pgm(images / f"{ids[1]}.pgm", 128, 96, seed=1)
    caplog.clear()
    assert run(capsys, "featurize", data, feat, "--images", images, "--resize-w", 32, "--resize-h", 16)[0] == 0
    warnings = [m for m in caplog.messages if m.startswith("featurize: ")]
    assert warnings == [f"featurize: {ids[1]}: image is 128x96, the record says 64x48"]
    records = read_dataset(feat).records
    assert records[0].candidates.features is not None and records[1].candidates.features is None


def test_manifest_records_input_digests(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "synth", data, "--seed", 5, "--num-images", 3, "--candidates", 6, "--feature-dim", 4)
    model_path = tmp_path / "m.json"
    run(capsys, "train", data, model_path, "--k", 2, "--epochs", 5)
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    # The synth sidecar beside the training file is read for a HOG geometry.
    assert list(manifest["inputs"]) == [str(data), str(data) + ".meta.json"]
    digest = manifest["inputs"][str(data)]
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert manifest["arguments"]["k"] == 2
    assert manifest["wall_time_s"] >= 0.0


MANIFEST_KEYS = {"command", "arguments", "config_digest", "inputs", "outputs", "wall_time_s", "version"}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A labeled geometric dataset with its PGM images, a model, a reranked copy and a saved report."""
    d = tmp_path_factory.mktemp("chain")
    (d / "imgs").mkdir()
    argvs = (
        ["synth", d / "geo.jsonl", "--mode", "geometric", "--seed", 3, "--num-images", 3,
         "--candidates", 12, "--image-size", "32,32"],
        ["label", d / "geo.jsonl", d / "labeled.jsonl"],
        ["train", d / "labeled.jsonl", d / "model.json", "--k", 2, "--epochs", 5],
        ["rerank", d / "labeled.jsonl", d / "ranked.jsonl", "--model", d / "model.json"],
        ["eval", d / "labeled.jsonl", d / "ranked.jsonl", "--output", d / "cmp", "--budgets", "1,5"],
    )
    for argv in argvs:
        assert main([str(a) for a in argv]) == 0
    for j, rec in enumerate(read_dataset(d / "geo.jsonl").records):
        make_pgm(d / "imgs" / f"{rec.image_id}.pgm", 32, 32, seed=j)
    for manifest in d.glob("*.manifest.json"):
        manifest.unlink()
    return d


@pytest.mark.parametrize("argv, primary", [
    (["synth", "{out}/s.jsonl", "--num-images", 2, "--candidates", 4, "--feature-dim", 3], "s.jsonl"),
    (["label", "{d}/geo.jsonl", "{out}/l.jsonl"], "l.jsonl"),
    (["featurize", "{d}/labeled.jsonl", "{out}/f.jsonl", "--images", "{d}/imgs",
      "--resize-w", 16, "--resize-h", 16], "f.jsonl"),
    (["train", "{d}/labeled.jsonl", "{out}/m.json", "--k", 2, "--epochs", 5], "m.json"),
    (["rerank", "{d}/labeled.jsonl", "{out}/r.jsonl", "--model", "{d}/model.json"], "r.jsonl"),
    (["eval", "{d}/labeled.jsonl", "{d}/ranked.jsonl", "--output", "{out}/e", "--budgets", "1,5"], "e.txt"),
    (["report", "{d}/cmp.json", "--output", "{out}/p"], "p.txt"),
])
def test_every_writing_command_leaves_one_manifest(chain, tmp_path, capsys, argv, primary):
    code, _ = run(capsys, *(str(a).format(d=chain, out=tmp_path) for a in argv))
    assert code == 0
    manifests = list(tmp_path.glob("*.manifest.json"))
    assert manifests == [tmp_path / f"{primary}.manifest.json"]
    manifest = json.loads(manifests[0].read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv[0]
    assert manifest["outputs"][0] == str(tmp_path / primary)
    assert all((tmp_path / p).is_file() for p in manifest["outputs"])
    assert manifest["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in manifest["inputs"]}
    assert not list(chain.glob("*.manifest.json"))


def test_runs_that_write_nothing_leave_no_manifest(chain, tmp_path, capsys):
    assert run(capsys, "eval", chain / "labeled.jsonl", chain / "ranked.jsonl", "--budgets", "1,5")[0] == 0
    assert list(tmp_path.iterdir()) == []
    assert not list(chain.glob("*.manifest.json"))


@pytest.mark.parametrize("command, source, extra", [
    ("label", "geo.jsonl", []),
    ("label", "ranked.jsonl", []),
    ("rerank", "labeled.jsonl", ["--model", "model.json"]),
    ("rerank", "ranked.jsonl", ["--model", "model.json"]),
    ("featurize", "labeled.jsonl", ["--images", "imgs", "--resize-w", 16, "--resize-h", 16]),
])
def test_a_command_writes_the_same_bytes_with_and_without_a_columns_file(
        chain, tmp_path, capsys, monkeypatch, command, source, extra):
    copied = copied_records(monkeypatch)
    bare = tmp_path / source  # the same JSON Lines, with no columns file beside them
    bare.write_bytes((chain / source).read_bytes())
    extra = [chain / arg if arg in ("model.json", "imgs") else arg for arg in extra]
    for given, out, lines_copied in ((chain / source, "copied.jsonl", 3), (bare, "parsed.jsonl", 0)):
        copied.clear()
        assert run(capsys, command, given, tmp_path / out, *extra)[0] == 0
        assert len(copied) == lines_copied
    assert (tmp_path / "copied.jsonl").read_bytes() == (tmp_path / "parsed.jsonl").read_bytes()


def test_every_dataset_proprank_writes_is_named_alike_by_its_bytes_and_its_digest(chain, tmp_path, capsys):
    argvs = (
        ["synth", tmp_path / "feat.jsonl", "--num-images", 3, "--candidates", 5, "--feature-dim", 4],
        ["featurize", chain / "labeled.jsonl", tmp_path / "hog.jsonl", "--images", chain / "imgs",
         "--resize-w", 16, "--resize-h", 16],
    )
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
    written = [tmp_path / "feat.jsonl", tmp_path / "hog.jsonl"] + [
        chain / name for name in ("geo.jsonl", "labeled.jsonl", "ranked.jsonl")
    ]
    for path in written:
        sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        assert read_dataset(path).source_sha256 == dataset_digest(read_dataset(path)) == sha256, path


def test_model_report_and_manifest_name_the_training_file_alike(chain, tmp_path, capsys):
    labeled = chain / "labeled.jsonl"
    assert run(capsys, "train", labeled, tmp_path / "m.json", "--k", 2, "--epochs", 5)[0] == 0
    assert run(capsys, "eval", labeled, chain / "ranked.jsonl", "--output", tmp_path / "e", "--budgets", "1,5")[0] == 0
    sha256 = hashlib.sha256(labeled.read_bytes()).hexdigest()
    provenance = json.loads((tmp_path / "m.json").read_text())["provenance"]
    assert provenance["source_sha256"] == sha256 and "dataset_digest" not in provenance
    sources = json.loads((tmp_path / "e.json").read_text())["sources"]
    assert [s["metadata"]["source_sha256"] for s in sources] == [sha256, sha256]
    for manifest in ("m.json", "e.txt"):
        inputs = json.loads((tmp_path / f"{manifest}.manifest.json").read_text())["inputs"]
        assert inputs[str(labeled)] == sha256


def test_train_and_rerank_manifests_name_the_sidecar_they_read(chain, tmp_path, capsys):
    feat, model = tmp_path / "f.jsonl", tmp_path / "m.json"
    argvs = (
        ["featurize", chain / "labeled.jsonl", feat, "--images", chain / "imgs", "--resize-w", 16, "--resize-h", 16],
        ["train", feat, model, "--k", 2, "--epochs", 5],
        ["rerank", feat, tmp_path / "r.jsonl", "--model", model],
    )
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
    sidecar = tmp_path / "f.jsonl.meta.json"
    sha256 = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    for primary in ("m.json", "r.jsonl"):
        inputs = json.loads((tmp_path / f"{primary}.manifest.json").read_text())["inputs"]
        assert inputs[str(sidecar)] == sha256


def test_eval_serializes_no_dataset(chain, tmp_path, capsys, monkeypatch):
    def refuse(dataset):
        raise AssertionError("eval serialized a dataset")

    monkeypatch.setattr(core, "dataset_to_lines", refuse)
    argv = ("eval", chain / "labeled.jsonl", chain / "ranked.jsonl", "--output", tmp_path / "e", "--budgets", "1,5")
    assert run(capsys, *argv)[0] == 0


def test_a_failed_write_leaves_no_partial_file(chain, tmp_path, capsys, monkeypatch):
    write_bytes = Path.write_bytes

    def full_disk(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_bytes", full_disk)
    assert run(capsys, "label", chain / "geo.jsonl", tmp_path / "out.jsonl")[0] == 2
    assert list(tmp_path.iterdir()) == []


def test_a_null_optional_model_field_takes_its_default(chain, tmp_path):
    # As an absent one does. A null provenance used to be refused while the other two loaded.
    saved = json.loads((chain / "model.json").read_text())
    model = tmp_path / "m.json"
    model.write_text(json.dumps({**saved, "hog_config": None, "provenance": None, "violation_report": None}))
    loaded = load_model(model)
    assert (loaded.hog_config, loaded.provenance, loaded.violation_report) == (None, {}, None)


# ---------------------------------------------------------------------------
# Bad input
#
# Each row is one case: its id, the argv, the input files, the exit code and
# the error message. The files go to an empty working directory; each is text,
# bytes, or a function of the chain fixture's directory, which "{d}" in the
# argv names. The message is the one error logged, or a pattern it matches
# whole. Every row prints nothing and leaves both directories as they were.

DELETE = object()


def patched(name, path, value):
    """The chain fixture's JSON file name, a JSON Lines file as a list of
    records, with the value at a dotted path replaced or deleted by DELETE."""
    def build(chain):
        text = (chain / name).read_text()
        obj = [json.loads(ln) for ln in text.splitlines()] if name.endswith(".jsonl") else json.loads(text)
        *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
        parent = functools.reduce(operator.getitem, parents, obj)
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
        return "".join(json.dumps(r) + "\n" for r in obj) if name.endswith(".jsonl") else json.dumps(obj)
    return build


def copied(name):
    return lambda chain: (chain / name).read_bytes()


OK = '{"image_id": "ok", "width": 8, "height": 8}\n'
A = '{"image_id": "a", "width": 8, "height": 8, '
BOX = A + '"candidates": [{"box": [1, 1, 3, 3], '
WITH_FEATURES = BOX + '"features": [1]}]}\n'
BIG = "1" + "0" * 400
NOT_NUMBERS = "a: candidate 0 features must be a list of numbers"
LABELED = "{d}/labeled.jsonl"
FEATURIZE = f"featurize {LABELED} f.jsonl --images {{d}}/imgs"


def line(case, record, message):
    """label on a dataset whose second line is record."""
    return f"line-{case}", "label in.jsonl o.jsonl", {"in.jsonl": OK + record + "\n"}, 2, f"line 2: {message}"


def sidecar(case, text, message):
    """train on the chain's labeled dataset with text as its sidecar."""
    files = {"d.jsonl": copied("labeled.jsonl"), "d.jsonl.meta.json": text}
    return f"sidecar-{case}", "train d.jsonl m.json --k 1", files, 2, f"d.jsonl.meta.json: {message}"


def model(case, path, value, message):
    """rerank with the chain's model patched."""
    argv, files = f"rerank {LABELED} r.jsonl --model m.json", {"m.json": patched("model.json", path, value)}
    return f"model-{case}", argv, files, 2, f"m.json: invalid model file: {message}"


def saved_report(case, path, value, message):
    """report of the chain's saved report patched."""
    files = {"p.json": patched("cmp.json", path, value)}
    return f"report-{case}", "report p.json --output p", files, 2, f"p.json: invalid report file: {message}"


BAD_INPUT = [
    ("label-absent-input", "label absent.jsonl o.jsonl", {}, 2, "[Errno 2] No such file or directory: 'absent.jsonl'"),
    ("label-line-without-size", "label in.jsonl o.jsonl", {"in.jsonl": '{"image_id": "a"}\n'}, 2,
     "line 1: a: missing required field 'width'"),
    line("groundtruth-a-number", A + '"groundtruth": 5}', "a: groundtruth must be a list, got 5"),
    line("candidates-a-number", A + '"candidates": 5}', "a: candidates must be a list, got 5"),
    line("label-a-string", BOX + '"iou_label": "x"}]}', "a: candidate 0 iou_label must be a number, got 'x'"),
    line("label-a-list", BOX + '"iou_label": [1]}]}', "a: candidate 0 iou_label must be a number, got [1]"),
    line("features-strings", BOX + '"features": ["a"]}]}', NOT_NUMBERS),
    line("features-an-object", BOX + '"features": {"a": 1}}]}', NOT_NUMBERS),
    # Errors raised by the dataset types carry the line, the image and the candidate.
    line("feature-dimensions-differ", A + '"candidates": [{"box": [1, 1, 3, 3], "features": [1]}, '
         '{"box": [1, 1, 3, 3], "features": [1, 2]}]}', "a: candidate 1 has feature dimension 2, expected 1"),
    line("features-nested", BOX + '"features": [[1]]}]}',
         "a: candidate 0 features must be a flat vector, got shape (1, 1)"),
    # Checks that span records name the line they fail on.
    ("lines-image-id-repeated", "label in.jsonl o.jsonl", {"in.jsonl": OK + WITH_FEATURES * 2}, 2,
     "line 3: duplicate image_id: a"),
    ("lines-feature-dimensions-differ", "label in.jsonl o.jsonl",
     {"in.jsonl": OK + WITH_FEATURES + WITH_FEATURES.replace('"a"', '"b"').replace("[1]", "[1, 2]")}, 2,
     "line 3: b: candidates have feature dimension 2, expected 1"),
    # Integers beyond float range (OverflowError) and nesting too deep for the
    # JSON parser (RecursionError) used to crash with a traceback and exit 1.
    line("label-beyond-float", BOX + f'"iou_label": {BIG}}}]}}',
         f"a: candidate 0 iou_label must be a number, got {BIG}"),
    line("box-beyond-float", A + f'"candidates": [{{"box": [1, 1, 3, {BIG}]}}]}}',
         "a: candidate 0 box has a non-numeric coordinate"),
    line("groundtruth-beyond-float", A + f'"groundtruth": [{{"class": "c", "box": [1, 1, 3, {BIG}]}}]}}',
         "a: groundtruth 0 box has a non-numeric coordinate"),
    line("features-beyond-float", BOX + f'"features": [1, {BIG}]}}]}}', NOT_NUMBERS),
    line("width-beyond-float", f'{{"image_id": "a", "width": {BIG}, "height": 8}}',
         "a: width must be finite, got an integer beyond float range"),
    ("line-nested-too-deep", "label in.jsonl o.jsonl", {"in.jsonl": OK + "[" * 100000 + "]" * 100000}, 2,
     re.compile(r"line 2: invalid JSON \(maximum recursion depth exceeded.*\)")),
    ("line-not-utf8", "label in.jsonl o.jsonl", {"in.jsonl": OK.encode() + b'{"image_id": "\xff"}\n'}, 2,
     "line 2: not valid UTF-8 (invalid start byte at byte 14)"),
    # A bool is not a number, though numpy would read true as 1 and false as 0.
    line("true-in-candidate-box", A + '"candidates": [{"box": [0, 0, true, 2]}]}',
         "a: candidate 0 box has a non-numeric coordinate"),
    line("false-in-groundtruth-box", A + '"groundtruth": [{"class": "c", "box": [false, 0, 2, 2]}]}',
         "a: groundtruth 0 box has a non-numeric coordinate"),
    line("label-true", BOX + '"iou_label": true}]}', "a: candidate 0 iou_label must be a number, got True"),
    line("false-among-features", BOX + '"features": [1, false]}]}', NOT_NUMBERS),
    line("features-all-bools", BOX + '"features": [true, false]}]}', NOT_NUMBERS),
    # A candidate column is on every candidate or on none.
    line("label-on-some", A + '"candidates": [{"box": [0, 0, 2, 2]}, {"box": [0, 0, 2, 2], "iou_label": 0.5}]}',
         "a: candidate 0 has no iou_label, but candidate 1 has one"),
    line("features-on-some", A + '"candidates": [{"box": [0, 0, 2, 2], "features": [1]}, {"box": [0, 0, 2, 2]}]}',
         "a: candidate 1 has no features, but candidate 0 has one"),
    line("source-index-on-some", A + '"candidates": [{"box": [0, 0, 2, 2], "source_index": 1}, '
         '{"box": [0, 0, 2, 2], "source_index": 0}, {"box": [0, 0, 2, 2]}]}',
         "a: candidate 2 has no source_index, but candidate 0 has one"),
    # A record without features, as featurize leaves one whose image it cannot use.
    ("train-a-record-without-features", "train in.jsonl m.json --k 1", {"in.jsonl": patched("labeled.jsonl", "1", {
        "image_id": "b", "width": 8, "height": 8, "candidates": [{"box": [1, 1, 3, 3], "iou_label": 0.5}] * 3,
    })}, 2, "b: candidate 0 has no features"),
    sidecar("truncated", "{", "invalid sidecar JSON (Expecting property name enclosed in double quotes)"),
    sidecar("a-list", "[1]", "invalid sidecar file: sidecar must be a JSON object, got [1]"),
    sidecar("hog-config-a-number", patched("geo.jsonl.meta.json", "hog_config", 5),
            "invalid sidecar file: hog_config must be a JSON object, got 5"),
    sidecar("cell-size-a-string", patched("geo.jsonl.meta.json", "hog_config", {"cell_size": "x"}),
            "invalid sidecar file: HogConfig.cell_size must be an integer, got 'x'"),
    # A patch one pixel wide or high has no [-1, 0, 1] gradient; it used to
    # fail inside HOG with an IndexError and exit 1.
    ("featurize-resize-w-1", f"{FEATURIZE} --resize-w 1 --cell-size 1 --block-size 1",
     {}, 2, "HogConfig.resize_w must be at least 2, got 1"),
    ("featurize-resize-h-1", f"{FEATURIZE} --resize-h 1 --cell-size 1 --block-size 1",
     {}, 2, "HogConfig.resize_h must be at least 2, got 1"),
    # A mistyped --images used to warn "image not found" once per record, exit
    # 0 and write every record without its features.
    ("featurize-images-dir-missing", f"featurize {LABELED} f.jsonl --images no-such-dir", {}, 2,
     "no-such-dir: not a directory"),
    ("featurize-images-a-file", "featurize in.jsonl f.jsonl --images in.jsonl", {"in.jsonl": OK}, 2,
     "in.jsonl: not a directory"),
    ("train-C-nan", f"train {LABELED} m.json --k 1 --C nan", {}, 2, "C must be positive and finite, got nan"),
    ("train-C-inf", f"train {LABELED} m.json --k 1 --C inf", {}, 2, "C must be positive and finite, got inf"),
    ("train-tol-nan", f"train {LABELED} m.json --k 1 --convergence-tol nan", {}, 2,
     "convergence_tol must be non-negative and finite, got nan"),
    ("train-tol-inf", f"train {LABELED} m.json --k 1 --convergence-tol inf", {}, 2,
     "convergence_tol must be non-negative and finite, got inf"),
    model("hog-config-a-number", "hog_config", 5, "hog_config must be a JSON object, got 5"),
    model("hog-config-a-string", "hog_config", "x", "hog_config must be a JSON object, got 'x'"),
    model("cell-size-a-string", "hog_config", {"cell_size": "a"}, "HogConfig.cell_size must be an integer, got 'a'"),
    model("provenance-a-number", "provenance", 5, "provenance must be a JSON object, got 5"),
    # An integer beyond float range used to fail as "int too large to convert to float".
    model("history-beyond-float", "objective_history", [10**400],
          "objective_history entry must be finite, got an integer beyond float range"),
    model("objective-beyond-float", "final_objective", 10**400,
          "final_objective must be finite, got an integer beyond float range"),
    model("weight-beyond-float", "weights", [0.5, 10**400, 0, 0],
          "weights entry must be finite, got an integer beyond float range"),
    model("weights-null", "weights", [None] * 4, "weights entry must be a real number, got None"),
    # Ill-typed config fields are refused by name instead of loading silently.
    model("slack-a-string", "config.per_image_slack", "no",
          "TrainingConfig.per_image_slack must be true or false, got 'no'"),
    model("k-fractional", "config.k", 2.5, "TrainingConfig.k must be an integer, got 2.5"),
    model("epochs-true", "config.epochs", True, "TrainingConfig.epochs must be an integer, got True"),
    # These used to load as a 401-digit int, and rerank exited 0.
    model("C-beyond-float", "config.C", 10**400, "TrainingConfig.C must be finite, got an integer beyond float range"),
    model("tol-beyond-float", "config.convergence_tol", 10**400,
          "TrainingConfig.convergence_tol must be finite, got an integer beyond float range"),
    model("cell-size-true", "hog_config", {"cell_size": True}, "HogConfig.cell_size must be an integer, got True"),
    model("resize-w-fractional", "hog_config", {"resize_w": 50.5}, "HogConfig.resize_w must be an integer, got 50.5"),
    # Numbers take the dataset decoder's rules: no strings, no bools, no truncation.
    model("dim-fractional", "feature_dim", 4.5, "feature_dim must be an integer, got 4.5"),
    model("dim-a-string", "feature_dim", "4", "feature_dim must be an integer, got '4'"),
    model("objective-a-string", "final_objective", "0.1", "final_objective must be a real number, got '0.1'"),
    model("objective-true", "final_objective", True, "final_objective must be a real number, got True"),
    model("history-a-string", "objective_history", [1.0, "0.5"],
          "objective_history entry must be a real number, got '0.5'"),
    model("history-false", "objective_history", [False], "objective_history entry must be a real number, got False"),
    model("weight-a-string", "weights", [0.5, "1", 0, 0], "weights entry must be a real number, got '1'"),
    model("weight-true", "weights", [0.5, True, 0, 0], "weights entry must be a real number, got True"),
    model("violations-a-number", "violation_report", 5, "violation_report must be a JSON object, got 5"),
    model("provenance-pairs", "provenance", [["a", 1]], "provenance must be a JSON object, got [['a', 1]]"),
    # A config that is not an object used to fail with a message about Python internals.
    model("config-a-list", "config", [1], "config must be a JSON object, got [1]"),
    model("config-a-string", "config", "k", "config must be a JSON object, got 'k'"),
    model("config-a-number", "config", 5, "config must be a JSON object, got 5"),
    # Real numbers must be finite, as in dataset lines; these used to load.
    model("objective-nan", "final_objective", float("nan"), "final_objective must be finite, got nan"),
    model("history-inf", "objective_history", [1.0, float("inf")], "objective_history entry must be finite, got inf"),
    # A list field that is not a list used to fail as "'int' object is not
    # iterable", and a string was read one letter at a time.
    model("weights-a-number", "weights", 5, "weights must be a list, got 5"),
    model("weights-a-string", "weights", "abcd", "weights must be a list, got 'abcd'"),
    # A missing required field used to fail with the bare key as its message.
    model("config-missing", "config", DELETE, "missing required field 'config'"),
    model("weights-missing", "weights", DELETE, "missing required field 'weights'"),
    ("model-not-utf8", f"rerank {LABELED} r.jsonl --model m.json", {"m.json": b'{"weights": "\xff"}'}, 2,
     "m.json: not valid UTF-8 (invalid start byte at byte 13)"),
    ("rerank-dimension-differs", "rerank in.jsonl r.jsonl --model {d}/model.json", {"in.jsonl": WITH_FEATURES}, 2,
     "a: feature dimension 1 does not match model dimension 12"),
    # Same dimension, different geometry: the features do not mean what the model learned.
    ("rerank-hog-geometry-differs", "rerank d.jsonl r.jsonl --model m.json", {
        "d.jsonl": copied("labeled.jsonl"),
        "d.jsonl.meta.json": patched("geo.jsonl.meta.json", "hog_config", {"clip_value": 0.3}),
        "m.json": patched("model.json", "hog_config", {}),
    }, 2, re.compile(r"HOG geometry of the dataset \(\{.*'clip_value': 0.3\}\) does not match the model's \(\{.*\}\)")),
    ("eval-images-differ", f"eval {LABELED} b.jsonl --output e", {"b.jsonl": OK}, 2,
     "datasets do not cover the same images (first differences: ['geo-3-00000', 'geo-3-00001', 'geo-3-00002', 'ok'])"),
    saved_report("budget-not-in-sources", "config.proposal_budgets", [1, 5, 77],
                 "source 0 has no DR at IoU 0.5, budget 77, which its config lists"),
    saved_report("strict-a-string", "config.strict", "false", "strict must be true or false, got 'false'"),
    # A budget of 1.7 or true used to re-render as budget 1 and exit 0.
    saved_report("budget-fractional", "config.proposal_budgets.0", 1.7, "proposal budget must be an integer, got 1.7"),
    saved_report("budget-true", "config.proposal_budgets.0", True, "proposal budget must be an integer, got True"),
    # An ABO class must be a string and metadata an object: str() would turn
    # null into the class "None", and dict() would take pairs as a row named zzz.
    saved_report("class-null", "sources.0.abo.0.class", None, "class must be a string, got None"),
    saved_report("metadata-pairs", "sources.0.metadata", [["source", "zzz"]],
                 "metadata must be a JSON object, got [['source', 'zzz']]"),
    # These used to fail with a message about Python internals, or to print NaN.
    saved_report("config-a-list", "config", [1], "config must be a JSON object, got [1]"),
    saved_report("value-nan", "sources.0.dr.0.value", float("nan"), "value must be finite, got nan"),
    # A field of the wrong kind or a missing one is refused by name.
    saved_report("sources-a-number", "sources", 5, "sources must be a list, got 5"),
    saved_report("sources-missing", "sources", DELETE, "missing required field 'sources'"),
    saved_report("dr-a-number", "sources.0.dr", 5, "dr must be a list, got 5"),
    saved_report("counts-a-list", "sources.0.counts", [1], "counts must be a JSON object, got [1]"),
    saved_report("thresholds-a-number", "config.iou_thresholds", 0.5, "iou_thresholds must be a list, got 0.5"),
    # With no sources there is no table to render.
    saved_report("sources-empty", "sources", [], "sources must not be empty"),
    ("report-not-utf8", "report p.json --output p", {"p.json": b'{"config": "\xff"}'}, 2,
     "p.json: not valid UTF-8 (invalid start byte at byte 12)"),
    ("report-nested-too-deep", "report p.json --output p", {"p.json": "[" * 100000}, 2,
     re.compile(r"p.json: invalid report JSON \(maximum recursion depth exceeded.*\)")),
    ("report-of-a-dataset", "report in.jsonl --output p", {"in.jsonl": '{"image_id": "a"}\n'}, 2,
     "in.jsonl: invalid report file: missing required field 'config'"),
]


def _tree(directory: Path) -> dict:
    return {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv, files, code, message", [pytest.param(*row, id=case) for case, *row in BAD_INPUT])
def test_bad_input_is_refused_and_writes_nothing(chain, tmp_path, monkeypatch, capsys, caplog,
                                                 argv, files, code, message):
    monkeypatch.chdir(tmp_path)
    for name, value in files.items():
        value = value(chain) if callable(value) else value
        (tmp_path / name).write_bytes(value.encode() if isinstance(value, str) else value)
    before = _tree(tmp_path), _tree(chain)
    caplog.clear()
    assert main(argv.format(d=chain).split()) == code
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert message.fullmatch(errors[0]) if isinstance(message, re.Pattern) else errors[0] == message
    assert capsys.readouterr().out == ""
    assert (_tree(tmp_path), _tree(chain)) == before
