import errno
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proprank import Box, Dataset, dataset_digest, load_model, rank_by_label, read_dataset, write_dataset
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


def test_missing_and_malformed_inputs_exit_2(tmp_path, capsys, caplog):
    assert main(["label", str(tmp_path / "absent.jsonl"), str(tmp_path / "out.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "a"}\n', encoding="utf-8")
    assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
    good = '{"image_id": "ok", "width": 8, "height": 8}\n'
    head = '{"image_id": "a", "width": 8, "height": 8, '
    cand = '"candidates": [{"box": [1, 1, 3, 3], '
    for record in (
        head + '"groundtruth": 5}',
        head + '"candidates": 5}',
        head + cand + '"iou_label": "x"}]}',
        head + cand + '"iou_label": [1]}]}',
        head + cand + '"features": ["a"]}]}',
        head + cand + '"features": {"a": 1}}]}',
    ):
        bad.write_text(good + record + "\n", encoding="utf-8")
        assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
        assert "line 2: a: " in caplog.messages[-1]
    # Errors raised by the dataset types carry the line, the image and the candidate.
    for record, message in (
        (head + '"candidates": [{"box": [1, 1, 3, 3], "features": [1]}, '
         '{"box": [1, 1, 3, 3], "features": [1, 2]}]}',
         "line 2: a: candidate 1 has feature dimension 2, expected 1"),
        (head + cand + '"features": [[1]]}]}',
         "line 2: a: candidate 0 features must be a flat vector, got shape (1, 1)"),
    ):
        bad.write_text(good + record + "\n", encoding="utf-8")
        assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
        assert caplog.messages[-1] == message
    # Checks that span records name the line they fail on.
    first = head + '"candidates": [{"box": [1, 1, 3, 3], "features": [1]}]}\n'
    for record, message in (
        (first, "line 3: duplicate image_id: a"),
        (first.replace('"a"', '"b"').replace("[1]", "[1, 2]"),
         "line 3: b: candidates have feature dimension 2, expected 1"),
    ):
        bad.write_text(good + first + record, encoding="utf-8")
        assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
        assert caplog.messages[-1] == message
    # Integers beyond float range (OverflowError) and nesting too deep for the
    # JSON parser (RecursionError) used to crash with a traceback and exit 1.
    big = "1" + "0" * 400
    for record in (
        head + cand + f'"iou_label": {big}}}]}}',
        head + f'"candidates": [{{"box": [1, 1, 3, {big}]}}]}}',
        head + f'"groundtruth": [{{"class": "c", "box": [1, 1, 3, {big}]}}]}}',
        head + cand + f'"features": [1, {big}]}}]}}',
        "[" * 100000 + "]" * 100000,
    ):
        bad.write_text(good + record + "\n", encoding="utf-8")
        assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
        assert "line 2: " in caplog.messages[-1]
    bad.write_bytes(good.encode() + b'{"image_id": "\xff"}\n')
    assert main(["label", str(bad), str(tmp_path / "out.jsonl")]) == 2
    assert "line 2: not valid UTF-8" in caplog.messages[-1]
    assert not (tmp_path / "out.jsonl").exists()
    data = tmp_path / "feats.jsonl"
    assert main(["synth", str(data), "--num-images", "3", "--candidates", "6", "--feature-dim", "4"]) == 0
    sidecar_path = tmp_path / "feats.jsonl.meta.json"
    for sidecar in ("{", "[1]", '{"hog_config": 5}', '{"hog_config": {"cell_size": "x"}}'):
        sidecar_path.write_text(sidecar, encoding="utf-8")
        assert main(["train", str(data), str(tmp_path / "model.json"), "--k", "1"]) == 2
        assert str(sidecar_path) in caplog.messages[-1]
    assert not (tmp_path / "model.json").exists()

    sidecar_path.unlink()
    # A patch one pixel wide or high has no [-1, 0, 1] gradient; it used to
    # fail inside HOG with an IndexError and exit 1.
    for flag in ("--resize-w", "--resize-h"):
        featurized = tmp_path / "featurized.jsonl"
        argv = ["featurize", str(data), str(featurized), "--images", str(tmp_path), flag, "1",
                "--cell-size", "1", "--block-size", "1"]
        assert main(argv) == 2
        assert f"HogConfig.{flag[2:].replace('-', '_')} must be at least 2, got 1" in caplog.messages[-1]
        assert not featurized.exists() and not (tmp_path / "featurized.jsonl.meta.json").exists()
        assert not (tmp_path / "featurized.jsonl.manifest.json").exists()
    for flag, value in (("--C", "nan"), ("--C", "inf"), ("--convergence-tol", "nan"), ("--convergence-tol", "inf")):
        assert main(["train", str(data), str(tmp_path / "model.json"), "--k", "1", flag, value]) == 2
        assert f"{flag[2:].replace('-', '_')} must be" in caplog.messages[-1]
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "model.json.manifest.json").exists()
    good_model = tmp_path / "good.json"
    assert main(["train", str(data), str(good_model), "--k", "1", "--epochs", "5"]) == 0
    saved = json.loads(good_model.read_text())
    model = tmp_path / "model.json"
    ranked = tmp_path / "ranked.jsonl"
    for key, value in (("hog_config", 5), ("hog_config", "x"), ("hog_config", {"cell_size": "a"}),
                       ("provenance", 5), ("objective_history", [10**400]), ("weights", [None] * 4)):
        model.write_text(json.dumps({**saved, key: value}), encoding="utf-8")
        assert main(["rerank", str(data), str(ranked), "--model", str(model)]) == 2
        assert f"{model}: invalid model file" in caplog.messages[-1]
    # Ill-typed config fields are refused by name instead of loading silently.
    config = saved["config"]
    for key, value, message in (
        ("config", {**config, "per_image_slack": "no"}, "TrainingConfig.per_image_slack must be true or false"),
        ("config", {**config, "k": 2.5}, "TrainingConfig.k must be an integer"),
        ("config", {**config, "epochs": True}, "TrainingConfig.epochs must be an integer"),
        ("hog_config", {"cell_size": True}, "HogConfig.cell_size must be an integer"),
        ("hog_config", {"resize_w": 50.5}, "HogConfig.resize_w must be an integer"),
    ):
        model.write_text(json.dumps({**saved, key: value}), encoding="utf-8")
        assert main(["rerank", str(data), str(ranked), "--model", str(model)]) == 2
        assert f"{model}: invalid model file: {message}" in caplog.messages[-1]
        assert not ranked.exists() and not (tmp_path / "ranked.jsonl.manifest.json").exists()
    model.write_bytes(b'{"weights": "\xff"}')
    assert main(["rerank", str(data), str(ranked), "--model", str(model)]) == 2
    assert f"{model}: not valid UTF-8" in caplog.messages[-1]
    assert not ranked.exists()
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
    assert str(out) in manifest["outputs"]
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
        sources = [c.source_index for c in new.candidates]
        assert sorted(sources) == list(range(orig.num_candidates))
        scores = new.features_matrix() @ model.weights
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_eval_and_report_round_trip(tmp_path, capsys, caplog):
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

    saved = json.loads((tmp_path / "cmp.json").read_text())
    bad = tmp_path / "bad.json"
    for key, value in (("proposal_budgets", [1, 5, 10, 77]), ("strict", "false")):
        bad.write_text(json.dumps({**saved, "config": {**saved["config"], key: value}}))
        assert main(["report", str(bad), "--output", str(tmp_path / "bad")]) == 2
    # A budget of 1.7 or true used to re-render as budget 1 and exit 0.
    for value in (1.7, True):
        bad.write_text(json.dumps({**saved, "config": {**saved["config"], "proposal_budgets": [value, 5, 10]}}))
        assert main(["report", str(bad), "--output", str(tmp_path / "bad")]) == 2
        message = f"{bad}: invalid report file: proposal budget must be an integer, got {value!r}"
        assert caplog.messages[-1] == message
    for raw in (b'{"config": "\xff"}', b"[" * 100000, json.dumps({**saved, "sources": 5}).encode()):
        bad.write_bytes(raw)
        assert main(["report", str(bad), "--output", str(tmp_path / "bad")]) == 2
        assert str(bad) in caplog.messages[-1]
    assert not (tmp_path / "bad.txt").exists()

    code, again = run(capsys, "eval", data, data, "--budgets", "1,5",
                      "--thresholds", "0.5", "--label-a", "x", "--label-b", "y")
    assert code == 0
    rows = [l for l in again.split("\n") if l.startswith(("x", "y"))]
    assert rows[0].split()[1:] == rows[1].split()[1:]


def test_eval_takes_the_order_of_a_file_without_source_index_and_rejects_foreign_boxes(tmp_path, capsys, caplog):
    data = tmp_path / "geo.jsonl"
    run(capsys, "synth", data, "--mode", "geometric", "--seed", 0, "--num-images", 4, "--candidates", 1000)
    dataset = read_dataset(data)

    def sorted_by_label(name, with_source_index, moved=None):
        """The dataset with each image's candidates sorted by iou_label; moved
        replaces the box of candidate 5 of the first image."""
        records = []
        for rec in dataset.records:
            rows = [replace(rec.candidates[i], source_index=i if with_source_index else None)
                    for i in rank_by_label(rec)]
            if moved is not None and not records:
                rows[5] = replace(rows[5], box=moved(rows[5].box))
            records.append(replace(rec, candidates=rows))
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
        shrunk = lambda b: Box(b.x_min, b.y_min, b.x_max, b.y_max - 0.5)  # noqa: E731
        foreign = sorted_by_label("foreign.jsonl", with_source_index, shrunk)
        out = tmp_path / "foreign"
        assert main(["eval", str(data), str(foreign), "--output", str(out)]) == 2
        assert caplog.messages[-1].startswith(f"{image_id}: candidate 5 box [")
        assert caplog.messages[-1].endswith("does not match the dataset's candidates")
        assert [p.name for p in tmp_path.glob("foreign*")] == ["foreign.jsonl"]
    capsys.readouterr()


def test_eval_rejects_mismatched_datasets(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run(capsys, "synth", a, "--mode", "geometric", "--seed", 1, "--num-images", 3, "--candidates", 10)
    run(capsys, "synth", b, "--mode", "geometric", "--seed", 2, "--num-images", 4, "--candidates", 10)
    assert main(["eval", str(a), str(b)]) == 2
    capsys.readouterr()


def test_rerank_rejects_dimension_mismatch(tmp_path, capsys, caplog):
    d6 = tmp_path / "d6.jsonl"
    d4 = tmp_path / "d4.jsonl"
    run(capsys, "synth", d6, "--seed", 3, "--num-images", 4, "--candidates", 8, "--feature-dim", 6)
    run(capsys, "synth", d4, "--seed", 3, "--num-images", 4, "--candidates", 8, "--feature-dim", 4)
    model_path = tmp_path / "m.json"
    run(capsys, "train", d6, model_path, "--k", 2, "--epochs", 10)
    out = tmp_path / "out.jsonl"
    assert main(["rerank", str(d4), str(out), "--model", str(model_path)]) == 2
    assert "feature dimension 4 does not match model dimension 6" in caplog.messages[-1]
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()
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

    ranked = tmp_path / "ranked.jsonl"
    assert run(capsys, "rerank", feat, ranked, "--model", model_path)[0] == 0
    ranked.unlink()
    # Same dimension, different geometry: the features do not mean what the model learned.
    meta["hog_config"]["clip_value"] = 0.3
    (tmp_path / "feat.jsonl.meta.json").write_text(json.dumps(meta))
    assert main(["rerank", str(feat), str(ranked), "--model", str(model_path)]) == 2
    assert not ranked.exists()
    capsys.readouterr()


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
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "a"}\n', encoding="utf-8")
    assert run(capsys, "label", bad, tmp_path / "out.jsonl")[0] == 2
    assert run(capsys, "report", bad, "--output", tmp_path / "p")[0] == 2
    assert sorted(tmp_path.iterdir()) == [bad]
    assert not list(chain.glob("*.manifest.json"))


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
    write_text = Path.write_text

    def full_disk(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_text", full_disk)
    assert run(capsys, "label", chain / "geo.jsonl", tmp_path / "out.jsonl")[0] == 2
    assert list(tmp_path.iterdir()) == []
