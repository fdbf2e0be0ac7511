import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_record
from oracles import brute_force_dr, brute_force_mabo
from proprank import (
    DataError,
    Dataset,
    EvalConfig,
    dataset_digest,
    detection_rate,
    evaluate,
    identity_rankings,
    mabo,
    report,
)
from proprank.metrics import EvalReport, render_csv, render_text


def two_image_dataset():
    rec1 = make_record(
        "one",
        gts=[("cat", [0, 0, 10, 10]), ("dog", [50, 50, 70, 70])],
        cand_boxes=[[0, 0, 10, 10], [50, 50, 60, 60], [80, 80, 90, 90]],
        labels=None,
    )
    rec2 = make_record(
        "two",
        gts=[("cat", [20, 20, 40, 40])],
        cand_boxes=[[25, 25, 40, 40], [0, 0, 5, 5]],
        labels=None,
    )
    return Dataset((rec1, rec2))


def test_eval_config_validation():
    with pytest.raises(DataError):
        EvalConfig(iou_thresholds=())
    with pytest.raises(DataError):
        EvalConfig(iou_thresholds=(0.0,))
    with pytest.raises(DataError):
        EvalConfig(iou_thresholds=(1.1,))
    with pytest.raises(DataError):
        EvalConfig(proposal_budgets=(10, 10))
    with pytest.raises(DataError):
        EvalConfig(proposal_budgets=(0, 5))
    cfg = EvalConfig((0.5,), (1, 5))
    assert EvalConfig.from_dict(cfg.to_dict()) == cfg
    # Budgets take the decoder's integer rule, thresholds any real number but a bool.
    for budgets, bad in (((1.7, 5), 1.7), ((True, 5), True), ((1, "5"), "5")):
        with pytest.raises(DataError, match=f"^proposal budget must be an integer, got {re.escape(repr(bad))}$"):
            EvalConfig((0.5,), budgets)
    for thresholds, bad in (((True,), True), (("0.5",), "0.5"), ((0.5, None), None)):
        with pytest.raises(DataError, match=f"^IoU threshold must be a real number, got {re.escape(repr(bad))}$"):
            EvalConfig(thresholds, (1, 5))
    assert EvalConfig((1,), (np.int64(1), 5.0)) == EvalConfig((1.0,), (1, 5))
    # A repeated threshold used to print its table twice; their order stays free.
    for thresholds in ((0.5, 0.5), (0.7, 0.5, 0.7), (0.5, 0.5, 0.5)):
        with pytest.raises(DataError, match="^IoU thresholds must be distinct$"):
            EvalConfig(thresholds, (1, 5))
    assert EvalConfig((0.7, 0.5), (1, 5)).iou_thresholds == (0.7, 0.5)
    # Both lists must be lists: a number used to fail as not iterable, and a
    # string was read one character at a time.
    for key, value in (("iou_thresholds", 0.5), ("iou_thresholds", "0.5"), ("proposal_budgets", "10")):
        with pytest.raises(DataError, match=f"^{key} must be a list, got {re.escape(repr(value))}$"):
            EvalConfig(**{key: value})


def test_best_overlap_respects_budget_and_ranking():
    # With one object, MABO is that object's best overlap.
    boxes = [[0, 0, 10, 10], [50, 50, 60, 60], [80, 80, 90, 90]]
    ds = Dataset((make_record("one", gts=[("cat", [0, 0, 10, 10])], cand_boxes=boxes),))
    assert mabo(ds, {"one": [0, 1, 2]}, 1)[1] == 1.0
    assert mabo(ds, {"one": [2, 1, 0]}, 1)[1] == 0.0
    assert mabo(ds, {"one": [2, 1, 0]}, 3)[1] == 1.0
    with pytest.raises(DataError, match="budget must be at least 1, got 0"):
        mabo(ds, {"one": [0, 1, 2]}, 0)
    with pytest.raises(DataError, match="permutation"):
        mabo(ds, {"one": [0, 0, 1]}, 3)


def test_detection_rate_hand_example():
    ds = two_image_dataset()
    ranks = identity_rankings(ds)
    # Overlaps: cat1 = 1.0, dog = (10x10)/(20x20 + 10x10 - 10x10) = 0.25,
    # cat2 = (15x15)/(20x20) = 0.5625.
    assert detection_rate(ds, ranks, 0.5, 3) == pytest.approx(100.0 * 2 / 3)
    assert detection_rate(ds, ranks, 0.2, 3) == pytest.approx(100.0)
    assert detection_rate(ds, ranks, 0.9, 3) == pytest.approx(100.0 / 3)
    # Budget 1 drops the dog's only overlapping candidate (it is ranked second).
    assert detection_rate(ds, ranks, 0.2, 1) == pytest.approx(100.0 * 2 / 3)


def test_detection_rate_strict_vs_inclusive():
    ds = two_image_dataset()
    ranks = identity_rankings(ds)
    # cat2's best overlap is exactly 0.5625.
    assert detection_rate(ds, ranks, 0.5625, 3, strict=True) == pytest.approx(100.0 / 3)
    assert detection_rate(ds, ranks, 0.5625, 3, strict=False) == pytest.approx(100.0 * 2 / 3)


def test_mabo_hand_example():
    ds = two_image_dataset()
    abo, value = mabo(ds, identity_rankings(ds), 3)
    assert_allclose(abo["cat"], (1.0 + 0.5625) / 2)
    assert_allclose(abo["dog"], 0.25)
    assert_allclose(value, (abo["cat"] + abo["dog"]) / 2)
    assert list(abo) == ["cat", "dog"]


def test_metrics_require_groundtruth():
    empty = Dataset((make_record("no-gt", labels=None, cand_boxes=[[0, 0, 5, 5]]),))
    with pytest.raises(DataError, match="no groundtruth"):
        detection_rate(empty, identity_rankings(empty), 0.5, 1)
    with pytest.raises(DataError, match="no groundtruth"):
        mabo(empty, identity_rankings(empty), 1)
    with pytest.raises(DataError, match="undefined"):
        evaluate(empty, identity_rankings(empty), EvalConfig())


def test_missing_ranking_is_an_error():
    ds = two_image_dataset()
    with pytest.raises(DataError, match="no ranking supplied"):
        detection_rate(ds, {"one": [0, 1, 2]}, 0.5, 1)


def random_geometry_dataset(rng, num_images, max_cands, prefix):
    size = 100
    records = []
    for j in range(num_images):
        gts = []
        for _ in range(int(rng.integers(1, 4))):
            x0, y0 = rng.uniform(0, 60, size=2)
            w, h = rng.uniform(5, 35, size=2)
            cls = f"class-{int(rng.integers(0, 3))}"
            gts.append((cls, [x0, y0, x0 + w, y0 + h]))
        boxes = []
        for _ in range(int(rng.integers(1, max_cands + 1))):
            x0, y0 = rng.uniform(0, 60, size=2)
            w, h = rng.uniform(5, 35, size=2)
            boxes.append([x0, y0, x0 + w, y0 + h])
        records.append(make_record(f"{prefix}-{j}", gts=gts, cand_boxes=boxes, labels=None, size=(size, size)))
    return Dataset(tuple(records))


def as_plain(ds):
    return [
        {
            "gts": [(g.class_label, g.box.as_list()) for g in rec.groundtruth],
            "cands": rec.candidates.boxes.tolist(),
        }
        for rec in ds.records
    ]


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(21)
    for trial in range(20):
        ds = random_geometry_dataset(rng, int(rng.integers(1, 8)), 12, f"bf{trial}")
        rankings = {
            rec.image_id: list(rng.permutation(rec.num_candidates)) for rec in ds.records
        }
        plain = as_plain(ds)
        orders = [rankings[rec.image_id] for rec in ds.records]
        for m in (1, 3, 10):
            for delta in (0.3, 0.5, 0.7):
                covered, total, pct = brute_force_dr(plain, orders, delta, m)
                assert detection_rate(ds, rankings, delta, m) == pct
            abo_ref, mabo_ref = brute_force_mabo(plain, orders, m)
            abo_got, mabo_got = mabo(ds, rankings, m)
            assert abo_got == pytest.approx(abo_ref, abs=1e-12)
            assert mabo_got == pytest.approx(mabo_ref, abs=1e-12)


def test_evaluate_equals_pointwise_metrics():
    rng = np.random.default_rng(22)
    ds = random_geometry_dataset(rng, 6, 10, "pw")
    rankings = identity_rankings(ds)
    cfg = EvalConfig((0.3, 0.5, 0.7), (1, 2, 5, 8))
    rep = evaluate(ds, rankings, cfg, "check")
    for d in cfg.iou_thresholds:
        for m in cfg.proposal_budgets:
            assert rep.dr[(d, m)] == detection_rate(ds, rankings, d, m)
    for m in cfg.proposal_budgets:
        abo_ref, mabo_ref = mabo(ds, rankings, m)
        assert rep.mabo[m] == mabo_ref
        for cls, v in abo_ref.items():
            assert rep.abo[(cls, m)] == v
    assert rep.metadata == {"source": "check"}  # report() adds the dataset digest, once
    assert sum(rep.counts.values()) == sum(len(r.groundtruth) for r in ds.records)


def test_dr_monotone_in_budget_and_antitone_in_threshold():
    rng = np.random.default_rng(23)
    ds = random_geometry_dataset(rng, 8, 12, "mono")
    cfg = EvalConfig((0.3, 0.5, 0.7, 0.9), (1, 2, 4, 8, 16))
    rep = evaluate(ds, identity_rankings(ds), cfg)
    for d in cfg.iou_thresholds:
        values = [rep.dr[(d, m)] for m in cfg.proposal_budgets]
        assert all(b >= a for a, b in zip(values, values[1:]))
    for m in cfg.proposal_budgets:
        values = [rep.dr[(d, m)] for d in cfg.iou_thresholds]
        assert all(b <= a for a, b in zip(values, values[1:]))
        mabos = [rep.mabo[m] for m in cfg.proposal_budgets]
        assert all(b >= a for a, b in zip(mabos, mabos[1:]))


def test_budgets_beyond_candidate_count_saturate():
    ds = two_image_dataset()
    ranks = identity_rankings(ds)
    assert detection_rate(ds, ranks, 0.5, 3) == detection_rate(ds, ranks, 0.5, 1000)
    assert mabo(ds, ranks, 3) == mabo(ds, ranks, 1000)


def test_evaluate_handles_images_with_no_candidates():
    rec = make_record("empty-cands", gts=[("cat", [0, 0, 10, 10])], cand_boxes=[], labels=None)
    ds = Dataset((rec,))
    rep = evaluate(ds, identity_rankings(ds), EvalConfig((0.5,), (1, 10)))
    assert rep.dr[(0.5, 1)] == 0.0
    assert rep.mabo[10] == 0.0


def test_report_round_trip_and_renderings():
    ds = two_image_dataset()
    cfg = EvalConfig((0.5, 0.7), (1, 2, 3))
    flipped = {rec.image_id: list(reversed(range(rec.num_candidates))) for rec in ds.records}
    comp = report(ds, identity_rankings(ds), flipped, cfg, label_a="as-is", label_b="flipped")
    text = comp.text
    assert "Detection rate (%) vs proposal budget, IoU > 0.5" in text
    assert "Detection rate (%) vs proposal budget, IoU > 0.7" in text
    assert "Mean average best overlap (MABO) vs proposal budget" in text
    assert "as-is" in text and "flipped" in text

    csv = comp.csv
    lines = csv.strip().split("\n")
    assert lines[0] == "metric,delta,budget,source,value"
    # 2 sources x (2 thresholds x 3 budgets DR rows + 3 MABO rows).
    assert len(lines) == 1 + 2 * (2 * 3 + 3)
    assert any(line.startswith("dr,0.5,1,as-is,") for line in lines)
    assert any(line.startswith("mabo,,3,flipped,") for line in lines)
    for line in lines[1:]:
        metric, _, _, _, value = line.split(",")
        assert len(value.split(".")[1]) == (2 if metric == "dr" else 4)

    # The one digest of the dataset is stamped on both sources, after the source label.
    for rep, label in ((comp.a, "as-is"), (comp.b, "flipped")):
        assert rep.metadata == {"source": label, "dataset_digest": dataset_digest(ds)}

    rebuilt = EvalReport.from_dict(comp.a.to_dict())
    saved = comp.a.to_dict()
    for key, field, bad, message in (
        ("dr", "budget", 1.7, "budget must be an integer, got 1.7"),
        ("mabo", "budget", True, "budget must be an integer, got True"),
        ("dr", "delta", True, "delta must be a real number, got True"),
        ("abo", "value", "0.5", "value must be a real number, got '0.5'"),
    ):
        entries = [{**saved[key][0], field: bad}, *saved[key][1:]]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            EvalReport.from_dict({**saved, key: entries})
    with pytest.raises(DataError, match=r"^count of cat must be an integer, got 1\.5$"):
        EvalReport.from_dict({**saved, "counts": {"cat": 1.5}})
    assert rebuilt.dr == comp.a.dr
    assert rebuilt.abo == comp.a.abo
    assert rebuilt.mabo == comp.a.mabo
    assert render_text((rebuilt, comp.b), cfg) == text
    assert render_csv((rebuilt, comp.b), cfg) == csv


def test_both_tables_label_a_source_without_one_alike():
    ds = two_image_dataset()
    cfg = EvalConfig((0.5,), (1, 2))
    reports = [evaluate(ds, identity_rankings(ds), cfg) for _ in range(2)]
    unlabeled = [EvalReport(r.dr, r.abo, r.mabo, r.counts) for r in reports]
    text_labels = [line.split()[0] for line in render_text(unlabeled, cfg).splitlines() if line.startswith("ranking")]
    csv_labels = [line.split(",")[3] for line in render_csv(unlabeled, cfg).splitlines()[1:]]
    assert text_labels == ["ranking-0", "ranking-1"] * 2
    assert csv_labels == ["ranking-0"] * 4 + ["ranking-1"] * 4


def test_render_text_column_alignment():
    ds = two_image_dataset()
    cfg = EvalConfig((0.5,), (1, 1000))
    comp = report(ds, identity_rankings(ds), identity_rankings(ds), cfg)
    lines = comp.text.split("\n")
    header = next(l for l in lines if l.startswith("source"))
    rows = [l for l in lines if l.startswith("source-order") or l.startswith("reranked")]
    assert len({len(header), *(len(r) for r in rows)}) == 1
