"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line with its measured numbers so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist. Oracles live in
oracles.py; golden report files live in tests/data/.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset, make_record
from oracles import (
    brute_force_dr,
    brute_force_mabo,
    certified_minimum,
    grid_minimum_1d,
    problem_from_instance,
    random_instance,
)
from proprank import (
    Box,
    Dataset,
    EvalConfig,
    GrayImage,
    GroundTruthObject,
    HogConfig,
    ImageRecord,
    SynthConfig,
    TrainedModel,
    TrainingConfig,
    build_partial_constraints,
    constraint_count,
    detection_rate,
    generate_feature_dataset,
    generate_geometric_dataset,
    hog,
    identity_rankings,
    mabo,
    rank_by_label,
    report,
    rerank,
    score,
    train_soft_margin,
)
from proprank.cli import main as cli_main
from proprank.core import Candidates

DATA_DIR = Path(__file__).parent / "data"


def _linear_model(w):
    w = np.asarray(w, dtype=np.float64)
    return TrainedModel(
        weights=w,
        feature_dim=w.size,
        training_config=TrainingConfig(k=1),
        final_objective=0.0,
    )


def test_criterion_1_constraint_count_identity():
    started = time.monotonic()
    assert constraint_count(1000, 20) == (19600, 499500)
    for n in range(2, 201):
        for k in range(1, n):
            partial, full = constraint_count(n, k)
            assert partial == k * (n - k)
            assert full == n * (n - 1) // 2
            if n >= 3 and k <= n - 2:
                assert partial < full
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (constraint counts exact over 1<=k<n<=200, {elapsed:.2f}s)")


def test_criterion_2_solver_matches_oracle_on_tiny_instances():
    started = time.monotonic()
    rng = np.random.default_rng(1234)
    worst = worst_gap = 0.0
    for trial in range(20):
        instance, k = random_instance(rng)
        C = float(rng.uniform(0.3, 2.0))
        dataset = make_dataset(instance, prefix=f"t{trial}")
        config = TrainingConfig(k=k, C=C, epochs=3000, convergence_tol=0.0)
        model = train_soft_margin(dataset, config)
        problem = problem_from_instance(instance, k)
        dim = instance[0][1].shape[1]
        # The true minimum lies in [lower, upper]; judge against the far end of each side.
        _, upper, lower = certified_minimum(problem, C, dim)
        gap = (upper - lower) / upper
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6
        rel = abs(model.final_objective - upper) / upper
        worst = max(worst, rel)
        assert model.final_objective <= lower * (1 + 1e-3)
        assert model.final_objective >= upper * (1 - 1e-3) - 1e-9

    analytic = make_dataset([(np.array([1.0, 0.0]), np.array([[2.0], [-2.0]]))])
    model = train_soft_margin(analytic, TrainingConfig(k=1, C=1.0, epochs=4000, convergence_tol=0.0))
    assert abs(model.weights[0] - 0.5) < 1e-3
    _, grid = grid_minimum_1d([problem_from_instance([(np.array([1.0, 0.0]), np.array([[2.0], [-2.0]]))], 1)[0]], 1.0)
    assert abs(model.final_objective - grid) < 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 2: PASS (20 instances within 1e-3 relative, worst {worst:.2e}; "
          f"certified oracle gap at most {worst_gap:.1e}; "
          f"1-D w={model.weights[0]:.6f}; {elapsed:.1f}s)")


def test_criterion_3_hard_margin_feasible_on_separable_data():
    started = time.monotonic()
    synth = SynthConfig(seed=0, num_images=50, candidates_per_image=50, feature_dim=16)
    dataset, _ = generate_feature_dataset(synth)
    config = TrainingConfig(k=5, C=1e6, epochs=200, convergence_tol=0.0)
    model = train_soft_margin(dataset, config)
    assert model.violation_report is not None
    assert model.violation_report["rank_violations"] == 0
    assert model.violation_report["hinge_violations"] == 0
    for record in dataset.records:
        part = build_partial_constraints(record, config)
        scores = score(model, record)
        assert scores[list(part.positives)].min() > scores[list(part.negatives)].max()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 3: PASS (0 violations, every min-positive > max-negative; {elapsed:.1f}s)")


def test_criterion_4_reranking_improves_detection_rate_and_mabo():
    started = time.monotonic()
    train = generate_geometric_dataset(
        SynthConfig(mode="geometric", seed=1000, num_images=200, candidates_per_image=100, noise_sigma=0.1)
    )
    test = generate_geometric_dataset(
        SynthConfig(mode="geometric", seed=2, num_images=100, candidates_per_image=100, noise_sigma=0.1)
    )
    model = train_soft_margin(train, TrainingConfig(k=10, epochs=200))
    identity = identity_rankings(test)
    reranked = {rec.image_id: rerank(model, rec) for rec in test.records}

    dr_in = detection_rate(test, identity, 0.7, 10)
    dr_out = detection_rate(test, reranked, 0.7, 10)
    mabo_in = mabo(test, identity, 10)[1]
    mabo_out = mabo(test, reranked, 10)[1]
    assert 20.0 <= dr_in <= 60.0
    assert dr_out >= dr_in + 10.0
    assert mabo_out > mabo_in
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"criterion 4: PASS (DR@0.7,10 {dr_in:.2f} -> {dr_out:.2f}, "
          f"MABO@10 {mabo_in:.4f} -> {mabo_out:.4f}; {elapsed:.1f}s)")


def _random_geometry_dataset(rng, tag):
    records = []
    for j in range(int(rng.integers(1, 21))):
        n = int(rng.integers(1, 31))
        gts = []
        for _ in range(int(rng.integers(1, 4))):
            x0, y0 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(4, 40, size=2)
            cls = f"class-{int(rng.integers(0, 3))}"
            gts.append(GroundTruthObject(cls, Box(x0, y0, x0 + w, y0 + h)))
        cands = []
        for _ in range(n):
            x0, y0 = rng.uniform(0, 70, size=2)
            w, h = rng.uniform(2, 28, size=2)
            cands.append([x0, y0, x0 + w, y0 + h])
        records.append(ImageRecord(f"{tag}-{j}", 100, 100, tuple(gts), Candidates(cands)))
    return Dataset(tuple(records))


def _as_plain(dataset):
    return [
        {
            "gts": [(g.class_label, (g.box.x_min, g.box.y_min, g.box.x_max, g.box.y_max)) for g in rec.groundtruth],
            "cands": [tuple(box) for box in rec.candidates.boxes.tolist()],
        }
        for rec in dataset.records
    ]


def test_criterion_5_metrics_match_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(55)
    config = EvalConfig()
    for trial in range(20):
        dataset = _random_geometry_dataset(rng, f"d{trial}")
        rankings = {rec.image_id: [int(i) for i in rng.permutation(rec.num_candidates)] for rec in dataset.records}
        plain = _as_plain(dataset)
        order = [rankings[rec.image_id] for rec in dataset.records]
        grid = {}
        for delta in config.iou_thresholds:
            for m in config.proposal_budgets:
                got = detection_rate(dataset, rankings, delta, m)
                _, _, want = brute_force_dr(plain, order, delta, m)
                assert got == want
                grid[(delta, m)] = got
        for m in config.proposal_budgets:
            abo, mean = mabo(dataset, rankings, m)
            abo_ref, mean_ref = brute_force_mabo(plain, order, m)
            assert set(abo) == set(abo_ref)
            assert all(abs(abo[c] - abo_ref[c]) <= 1e-12 for c in abo)
            assert abs(mean - mean_ref) <= 1e-12
        budgets = config.proposal_budgets
        for delta in config.iou_thresholds:
            for m_lo, m_hi in zip(budgets, budgets[1:]):
                assert grid[(delta, m_lo)] <= grid[(delta, m_hi)]
        for d_lo, d_hi in zip(config.iou_thresholds, config.iou_thresholds[1:]):
            for m in budgets:
                assert grid[(d_lo, m)] >= grid[(d_hi, m)]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"criterion 5: PASS (20 datasets bitwise-equal to brute force, monotone; {elapsed:.1f}s)")


def test_criterion_6_rerank_invariances():
    rng = np.random.default_rng(66)
    # scale invariance and the zero-weight identity
    feats = rng.normal(size=(40, 6))
    record = make_record("scaled", labels=None, feats=feats)
    w = rng.normal(size=6)
    base = rerank(_linear_model(w), record)
    for alpha in (0.5, 1.0, 3.0, 100.0):
        assert rerank(_linear_model(alpha * w), record) == base
    assert rerank(_linear_model(np.zeros(6)), record) == list(range(40))

    # tie-break stability over random score vectors with forced duplicates
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0, rng.normal()], size=n)
        rec = make_record("ties", labels=None, feats=scores.reshape(-1, 1))
        perm = rerank(_linear_model([1.0]), rec)
        assert perm == sorted(range(n), key=lambda i: (-scores[i], i))
    print("criterion 6: PASS (scale invariant, w=0 identity, 1000 stable tie-breaks)")


def _gray(pixels):
    h, w = pixels.shape
    return GrayImage(w, h, pixels)


def test_criterion_7_hog_sanity():
    started = time.monotonic()
    config = HogConfig()
    assert config.dimension == 1080
    rng = np.random.default_rng(7)
    flat = hog(_gray(np.full((60, 50), 0.42)), config)
    assert flat.shape == (1080,)
    assert np.all(flat == 0.0)
    for _ in range(20):
        patch = _gray(rng.uniform(0.0, 1.0, size=(60, 50)))
        vec = hog(patch, config)
        assert vec.shape == (1080,)
        assert vec.min() >= 0.0 and vec.max() <= 1.0
    base = rng.uniform(0.2, 0.7, size=(60, 50))
    shifted = hog(_gray(base + 0.25), config)
    assert np.max(np.abs(shifted - hog(_gray(base), config))) <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 7: PASS (dim 1080, zeros on flat, values in [0,1], brightness-invariant; {elapsed:.1f}s)")


def _run_pipeline(root):
    root.mkdir()
    raw = root / "geo.jsonl"
    labeled = root / "labeled.jsonl"
    model = root / "model.json"
    ranked = root / "ranked.jsonl"
    rep = root / "rep"
    steps = [
        ["synth", str(raw), "--mode", "geometric", "--seed", "77", "--num-images", "30",
         "--candidates", "40", "--noise-sigma", "0.05"],
        ["label", str(raw), str(labeled)],
        ["train", str(labeled), str(model), "--k", "5", "--epochs", "60"],
        ["rerank", str(labeled), str(ranked), "--model", str(model)],
        ["eval", str(labeled), str(ranked), "--output", str(rep)],
    ]
    for argv in steps:
        assert cli_main(argv) == 0
    return raw, labeled, model, ranked, rep


def test_criterion_8_pipeline_is_deterministic(tmp_path, capsys):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    capsys.readouterr()

    for path_a, path_b in zip(first[:2] + first[3:4], second[:2] + second[3:4]):
        assert path_a.read_bytes() == path_b.read_bytes()

    model_a = json.loads(first[2].read_text())
    model_b = json.loads(second[2].read_text())
    model_a["provenance"].pop("created")
    model_b["provenance"].pop("created")
    assert model_a == model_b
    assert model_a["weights"] == model_b["weights"]

    for ext in (".txt", ".csv", ".json"):
        a = first[4].with_name(first[4].name + ext)
        b = second[4].with_name(second[4].name + ext)
        assert a.read_bytes() == b.read_bytes()
    print("criterion 8: PASS (datasets, model sans timestamp, and reports byte-identical)")


def _golden_comparison():
    config = SynthConfig(mode="geometric", seed=31, num_images=12, candidates_per_image=100)
    dataset = generate_geometric_dataset(config)
    rankings_b = {rec.image_id: rank_by_label(rec) for rec in dataset.records}
    return report(dataset, identity_rankings(dataset), rankings_b, EvalConfig(),
                  label_a="ingest", label_b="labelrank")


def test_criterion_9_report_layout_matches_golden_files():
    comparison = _golden_comparison()
    text = comparison.text
    headers = re.findall(r"Detection rate \(%\) vs proposal budget, IoU > (\S+)", text)
    assert headers == ["0.5", "0.7", "0.9"]
    assert text.count("Mean average best overlap (MABO) vs proposal budget") == 1
    header_row = next(line for line in text.splitlines() if line.startswith("source"))
    assert header_row.split()[1:] == ["1", "10", "50", "100", "200", "500", "800", "1000"]
    for line in text.splitlines():
        if line.startswith(("ingest", "labelrank")):
            cells = line.split()[1:]
            assert len(cells) == 8
            decimals = {len(c.split(".")[1]) for c in cells}
            assert decimals in ({2}, {4})

    assert text == (DATA_DIR / "report_golden.txt").read_text()
    assert comparison.csv == (DATA_DIR / "report_golden.csv").read_text()
    print("criterion 9: PASS (3 DR tables + MABO table match golden files byte-for-byte)")
