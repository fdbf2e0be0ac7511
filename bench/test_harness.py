"""Self-tests of the benchmark harness, at tiny scales.

Run from the root of a checkout with: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "geo-cli": workloads.GeoScale(images=4, candidates=200, k=5),
    "hog-online": workloads.HogScale(images=3, candidates=12, train_images=2, image_size=(64, 48), k=3),
    "solver-feat": workloads.SolverScale(images=20, candidates=15, dim=6, epochs=5, baseline_images=3, k=3),
}


def _spans(rows):
    return [tracer.Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_of_a_hand_built_tree():
    spans = _spans([
        ("cli.main", 0.0, 10.0, -1),
        ("ranking.train_soft_margin", 1.0, 4.0, 0),
        ("ranking.dataset_digest", 2.0, 3.0, 1),
        ("cli.read_dataset", 5.0, 9.0, 0),
        ("cli.main", 11.0, 12.5, -1),
    ])
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = _spans([("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 8.0, 0), ("d", 9.0, 12.0, 0)])
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layers_partition_the_root_time():
    t = tracer.Tracer()
    t.spans.extend(_spans([
        ("cli.main", 0.0, 10.0, -1),
        ("core.dataset_to_lines", 1.0, 4.0, 0),
        ("core.dataset_digest", 5.0, 9.0, 0),
        ("core.dataset_to_lines", 6.0, 8.0, 2),
    ]))
    t.layer_of.update({"cli.main": "cli.self_s", "core.dataset_to_lines": "core.serialize_s",
                       "core.dataset_digest": "core.digest_s"})
    layers = t.layer_seconds()
    # The serialization inside the digest is charged to the digest.
    assert (layers["cli.self_s"], layers["core.serialize_s"], layers["core.digest_s"]) == (3.0, 3.0, 4.0)
    assert sum(layers.values()) == t.root_seconds() == 10.0


def _proprank_names() -> dict:
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "proprank" or name.startswith("proprank.")
        for key, value in vars(module).items()
        if callable(value)
    } | {("PgmDirectory", "get"): workloads.features.PgmDirectory.get}


def test_wrappers_nest_at_caller_names_and_are_restored(tmp_path):
    before = _proprank_names()
    dataset, _ = workloads.synthdata.generate_feature_dataset(
        workloads.synthdata.SynthConfig(num_images=3, candidates_per_image=8, feature_dim=4)
    )
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert workloads.ranking.dataset_digest is not before[("proprank.ranking", "dataset_digest")]
            workloads.ranking.train_soft_margin(dataset, workloads.ranking.TrainingConfig(k=2, epochs=2))
            raise RuntimeError("restore on the way out of a failure too")
    assert _proprank_names() == before
    names = [s.name for s in t.spans]
    digest = names.index("core.dataset_digest")
    assert t.spans[digest].parent == names.index("ranking.train_soft_margin")
    assert t.spans[digest + 1].name == "core.dataset_to_lines" and t.spans[digest + 1].parent == digest
    assert t.counts["core.digest_calls"] == 1
    assert t.counts["ranking.steps"] == 2 * 3


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_bytes_follow_the_seed(name, tmp_path):
    def make(seed, where):
        workload = workloads.WORKLOADS[name](seed, tmp_path / where, TINY[name])
        (tmp_path / where).mkdir()
        workload.setup()
        return workload.input_bytes()

    first = make(3, "a")
    assert first and make(3, "b") == first
    assert make(4, "c") != first


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_correct_and_counts_repeat(name, tmp_path):
    before = _proprank_names()
    results = []
    for where in ("a", "b"):
        (tmp_path / where).mkdir()
        result, detail = run.measure(name, 3, 0.1, True, tmp_path / where, TINY[name])
        assert result["correct"], detail
        assert set(result["metrics"]) == set(run.PER_LAYER)
        assert detail["layer_sum_s"] == pytest.approx(detail["traced_job_s"], abs=0.05)
        results.append(result)
    assert _proprank_names() == before
    counts = [{k: r["metrics"][k]["value"] for k in run.COUNT_METRICS} for r in results]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(tracer.Tracer, "installed", None)  # an untraced run must never patch
    result, detail = run.measure(name, 3, 0.1, False, tmp_path, TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["metrics"]["ops_failed"]["value"] == 0.0
    # Times are reported at the reference speed; the detail line keeps them as measured.
    assert detail["speed_factor"] > 0 and detail["calibration_samples"] >= 2 * run.CALIBRATION_MIN_SAMPLES
    assert set(detail["measured_medians_s"]) == {"setup_s", "job_s", "train_s", "rerank_s", "eval_s"}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    design = json.loads(run.DESIGN.read_text())
    assert set(design["workloads"]) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solver-feat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
