import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dataset, make_record
from oracles import (
    certified_minimum,
    eval_objective,
    grid_minimum_1d,
    materialized_descent,
    pair_row_blocks,
    partial_row_blocks,
    problem_from_instance,
    random_instance,
    violation_report,
)
from proprank import (
    ConstraintPartition,
    DataError,
    Dataset,
    NumericError,
    TrainingConfig,
    build_partial_constraints,
    constraint_count,
    load_model,
    negatives_cap,
    objective,
    rerank,
    save_model,
    score,
    train_full_rank_baseline,
    train_soft_margin,
)
from proprank.core import label_dataset
from proprank.ranking import model_from_dict, model_to_dict
from proprank.synthdata import SynthConfig, generate_feature_dataset, generate_geometric_dataset


def tiny_config(**kw):
    base = dict(k=1, epochs=300, convergence_tol=0.0)
    base.update(kw)
    return TrainingConfig(**base)


def test_training_config_validation():
    with pytest.raises(DataError):
        TrainingConfig(k=0)
    with pytest.raises(DataError):
        TrainingConfig(C=0.0)
    with pytest.raises(DataError):
        TrainingConfig(epochs=0)
    with pytest.raises(DataError):
        TrainingConfig(convergence_tol=-1e-9)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DataError, match="C must be positive and finite"):
            TrainingConfig(C=bad)
        with pytest.raises(DataError, match="convergence_tol must be non-negative and finite"):
            TrainingConfig(convergence_tol=bad)
    with pytest.raises(TypeError):
        TrainingConfig(mode="hard")  # hard margin is a large C, not a mode
    cfg = TrainingConfig(C=1e5, per_image_slack=False)
    assert TrainingConfig.from_dict(cfg.to_dict()) == cfg


def test_training_config_field_types():
    for field, bad, kind in (
        ("k", 2.5, "an integer"), ("k", True, "an integer"), ("k", "3", "an integer"),
        ("epochs", True, "an integer"), ("epochs", 10.0, "an integer"),
        ("C", True, "a real number"), ("C", "1", "a real number"), ("C", None, "a real number"),
        ("convergence_tol", False, "a real number"),
        ("per_image_slack", "no", "true or false"), ("per_image_slack", 0, "true or false"),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(f'TrainingConfig.{field} must be {kind}, got {bad!r}')}$"):
            TrainingConfig.from_dict({field: bad})
    # Any integral number is an integer and any real number a real.
    assert TrainingConfig(k=np.int64(3), C=2, epochs=np.int32(4)) == TrainingConfig(k=3, C=2.0, epochs=4)


def test_negatives_cap_values():
    assert negatives_cap(100, 20) == 40
    assert negatives_cap(5, 2) == 3
    assert negatives_cap(30, 10) == 20
    assert negatives_cap(2, 1) == 1


def test_partition_hand_example():
    rec = make_record("p", labels=[0.9, 0.1, 0.5, 0.7, 0.3])
    part = build_partial_constraints(rec, TrainingConfig(k=2))
    assert part.positives == (0, 3)
    assert part.negatives == (2, 4, 1)
    assert part.num_constraints == 6


def test_partition_all_equal_labels_is_stable():
    rec = make_record("q", labels=[0.5] * 5)
    part = build_partial_constraints(rec, TrainingConfig(k=2))
    assert part.positives == (0, 1)
    assert part.negatives == (2, 3, 4)


def test_partition_needs_more_candidates_than_k():
    rec = make_record("few", labels=[0.5, 0.6])
    with pytest.raises(DataError, match="few: needs more than k=2"):
        build_partial_constraints(rec, TrainingConfig(k=2))


def test_partition_validation():
    with pytest.raises(DataError):
        ConstraintPartition((), (1,))
    with pytest.raises(DataError):
        ConstraintPartition((1, 2), (2, 3))
    assert ConstraintPartition((0,), (1, 2)).num_constraints == 2


def test_constraint_count_examples():
    assert constraint_count(1000, 20) == (19600, 499500)
    assert constraint_count(2, 1) == (1, 1)
    assert constraint_count(5, 2) == (6, 10)
    with pytest.raises(DataError):
        constraint_count(5, 0)
    with pytest.raises(DataError):
        constraint_count(5, 5)


def test_objective_at_zero_weights_per_image_slack():
    rng = np.random.default_rng(0)
    instance, k = random_instance(rng)
    ds = make_dataset(instance)
    cfg = TrainingConfig(k=k, C=2.5)
    parts = [build_partial_constraints(r, cfg) for r in ds.records]
    w0 = np.zeros(ds.feature_dim)
    assert_allclose(objective(w0, ds, parts, cfg), 2.5 * len(ds.records))


def test_objective_at_zero_weights_per_constraint_slack():
    labels = [0.9, 0.8, 0.3, 0.2, 0.1]
    rec = make_record("pc", labels=labels, feats=[[float(i)] for i in range(5)])
    ds = Dataset((rec,))
    cfg = TrainingConfig(k=2, per_image_slack=False, C=3.0)
    parts = [build_partial_constraints(rec, cfg)]
    # k=2 positives and cap=min(3,4)=3 negatives, each hinge worth 1 at w=0.
    assert_allclose(objective(np.zeros(1), ds, parts, cfg), 3.0 * 5)


def test_objective_matches_reference_evaluation():
    rng = np.random.default_rng(1)
    for trial in range(20):
        instance, k = random_instance(rng)
        ds = make_dataset(instance, prefix=f"obj{trial}")
        per_image = bool(trial % 2)
        cfg = TrainingConfig(k=k, C=float(rng.uniform(0.5, 3.0)), per_image_slack=per_image)
        parts = [build_partial_constraints(r, cfg) for r in ds.records]
        problem = problem_from_instance(instance, k)
        dim = instance[0][1].shape[1]
        for _ in range(5):
            w = rng.normal(size=dim)
            assert_allclose(
                objective(w, ds, parts, cfg),
                eval_objective(w, problem, cfg.C, per_image),
                rtol=1e-12,
            )


def test_objective_is_convex_along_random_segments():
    rng = np.random.default_rng(2)
    instance, k = random_instance(rng)
    ds = make_dataset(instance)
    dim = instance[0][1].shape[1]
    for per_image in (True, False):
        cfg = TrainingConfig(k=k, per_image_slack=per_image)
        parts = [build_partial_constraints(r, cfg) for r in ds.records]
        for _ in range(50):
            w1 = rng.normal(size=dim)
            w2 = rng.normal(size=dim)
            lam = float(rng.uniform())
            mid = objective(lam * w1 + (1 - lam) * w2, ds, parts, cfg)
            bound = lam * objective(w1, ds, parts, cfg) + (1 - lam) * objective(w2, ds, parts, cfg)
            assert mid <= bound + 1e-9


def test_objective_rejects_wrong_dimension():
    rec = make_record("d", labels=[0.9, 0.1], feats=[[1.0, 2.0], [0.0, 1.0]])
    ds = Dataset((rec,))
    cfg = TrainingConfig(k=1)
    parts = [build_partial_constraints(rec, cfg)]
    with pytest.raises(DataError, match="dimension"):
        objective(np.zeros(3), ds, parts, cfg)


def test_training_is_deterministic():
    ds, _ = generate_feature_dataset(SynthConfig(seed=5, num_images=8, candidates_per_image=12, feature_dim=6))
    cfg = TrainingConfig(k=3, epochs=40)
    m1 = train_soft_margin(ds, cfg)
    m2 = train_soft_margin(ds, cfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.final_objective == m2.final_objective
    assert m1.objective_history == m2.objective_history


def test_history_is_non_increasing_and_bounded_by_zero_start():
    ds, _ = generate_feature_dataset(SynthConfig(seed=6, num_images=6, candidates_per_image=10, feature_dim=5))
    cfg = TrainingConfig(k=2, C=1.5, epochs=30)
    model = train_soft_margin(ds, cfg)
    hist = model.objective_history
    assert len(hist) == 30
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert model.final_objective == hist[-1]
    assert model.final_objective <= 1.5 * len(ds.records)
    rank = hinge = 0
    residual = 0.0
    for rec in ds.records:
        part = build_partial_constraints(rec, cfg)
        s = score(model, rec)
        sp, sq = s[list(part.positives)], s[list(part.negatives)]
        rank += sum(int(p <= q) for p in sp for q in sq)
        hinge += sum(int(p < 1.0) for p in sp) + sum(int(q > -1.0) for q in sq)
        residual = max([residual, *(1.0 - sp), *(1.0 + sq)])
    assert model.violation_report == {
        "rank_violations": rank,
        "hinge_violations": hinge,
        "max_hinge_residual": pytest.approx(residual, rel=1e-12),
    }


def test_one_dimensional_analytic_case():
    rec = make_record("axis", labels=[1.0, 0.0], feats=[[2.0], [-2.0]])
    ds = Dataset((rec,))
    cfg = tiny_config(epochs=4000)
    model = train_soft_margin(ds, cfg)
    assert_allclose(model.weights[0], 0.5, atol=1e-3)
    assert_allclose(model.final_objective, 0.125, atol=1e-3)
    w_star, j_star = grid_minimum_1d([(np.array([[2.0]]), np.array([[-2.0]]))], C=1.0)
    assert_allclose(w_star, 0.5, atol=1e-4)
    assert_allclose(j_star, 0.125, atol=1e-6)


def test_solver_matches_search_oracle_on_small_instances():
    rng = np.random.default_rng(3)
    for trial in range(4):
        instance, k = random_instance(rng, max_images=2, max_n=5, max_k=2, max_dim=2)
        ds = make_dataset(instance, prefix=f"so{trial}")
        cfg = tiny_config(k=k, epochs=3000 // len(ds.records))
        model = train_soft_margin(ds, cfg)
        problem = problem_from_instance(instance, k)
        dim = instance[0][1].shape[1]
        # The true minimum lies in [lower, upper]; judge against the far end of each side.
        _, upper, lower = certified_minimum(problem, C=1.0, dim=dim)
        assert model.final_objective >= upper - 1e-9
        assert model.final_objective <= lower + 1e-3 * max(abs(lower), 1.0)


def test_per_constraint_slack_never_below_shared_slack():
    # Summing every hinge dominates taking the per-image worst one.
    rng = np.random.default_rng(4)
    instance, k = random_instance(rng)
    ds = make_dataset(instance)
    shared = TrainingConfig(k=k)
    summed = TrainingConfig(k=k, per_image_slack=False)
    parts = [build_partial_constraints(r, shared) for r in ds.records]
    dim = instance[0][1].shape[1]
    for _ in range(20):
        w = rng.normal(size=dim)
        assert objective(w, ds, parts, summed) >= objective(w, ds, parts, shared) - 1e-12


def test_per_constraint_slack_training_runs_and_descends():
    ds, _ = generate_feature_dataset(SynthConfig(seed=9, num_images=6, candidates_per_image=12, feature_dim=5))
    cfg = TrainingConfig(k=2, epochs=60, per_image_slack=False)
    model = train_soft_margin(ds, cfg)
    at_zero = 1.0 * sum(
        len(p.positives) + len(p.negatives)
        for p in (build_partial_constraints(r, cfg) for r in ds.records)
    )
    assert model.final_objective < at_zero


def test_large_C_reaches_feasibility_on_separable_data():
    ds, planted = generate_feature_dataset(
        SynthConfig(seed=11, num_images=6, candidates_per_image=12, feature_dim=8)
    )
    cfg = TrainingConfig(k=2, C=1e6, epochs=1000, convergence_tol=0.0)
    model = train_soft_margin(ds, cfg)
    assert model.violation_report is not None
    assert model.violation_report["rank_violations"] == 0
    assert model.violation_report["hinge_violations"] == 0
    assert model.violation_report["max_hinge_residual"] == 0.0
    # The planted direction ranks perfectly, the trained one must as well.
    for rec in ds.records:
        scores = score(model, rec)
        labels = np.asarray(rec.iou_labels())
        order = np.argsort(-scores, kind="stable")
        assert list(np.argsort(-labels, kind="stable")) == list(order)
    assert planted.shape == (8,)


@pytest.mark.xfail(strict=True, reason="the step eta*C overshoots at C=1e6, so no epoch beats the zero start")
def test_large_C_trains_a_nonzero_model_on_noisy_data():
    ds, _ = generate_feature_dataset(
        SynthConfig(seed=1, num_images=30, candidates_per_image=25, feature_dim=7, noise_sigma=0.1)
    )
    model = train_soft_margin(ds, TrainingConfig(k=3, C=1e6, epochs=80))
    assert np.any(model.weights != 0.0)


def test_training_rejects_bad_datasets():
    with pytest.raises(DataError, match="empty dataset"):
        train_soft_margin(Dataset(()), TrainingConfig())
    with pytest.raises(DataError, match="empty dataset"):
        train_full_rank_baseline(Dataset(()), TrainingConfig())
    unfeaturized = Dataset((make_record("u", labels=[0.5, 0.2]),))
    with pytest.raises(DataError):
        train_soft_margin(unfeaturized, TrainingConfig(k=1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_raises_numeric_error_on_blowup():
    rec = make_record("blow", labels=[1.0, 0.0], feats=[[1e200], [-1e200]])
    ds = Dataset((rec,))
    with pytest.raises(NumericError):
        train_soft_margin(ds, TrainingConfig(k=1, epochs=3))


def test_full_rank_baseline_single_pair_analytic():
    rec = make_record("pair", labels=[1.0, 0.0], feats=[[0.5], [-0.5]])
    ds = Dataset((rec,))
    model = train_full_rank_baseline(ds, tiny_config(epochs=4000))
    # J(w) = w^2/2 + max(0, 1 - w), minimized at w = 1.
    assert_allclose(model.weights[0], 1.0, atol=1e-3)
    assert_allclose(model.final_objective, 0.5, atol=1e-3)
    assert model.provenance["trainer"] == "full_rank_baseline"
    # The baseline charges every pair its own hinge and its model file says so.
    assert tiny_config().per_image_slack
    assert model.training_config == tiny_config(epochs=4000, per_image_slack=False)


def test_full_rank_baseline_handles_images_without_pairs():
    rec1 = make_record("solo", labels=[0.4], feats=[[1.0]])
    rec2 = make_record("duo", labels=[1.0, 0.0], feats=[[0.5], [-0.5]])
    model = train_full_rank_baseline(Dataset((rec1, rec2)), tiny_config(epochs=2000))
    assert_allclose(model.weights[0], 1.0, atol=1e-2)
    solo_only = Dataset((rec1,))
    flat = train_full_rank_baseline(solo_only, tiny_config(epochs=5))
    assert flat.weights[0] == 0.0
    assert flat.final_objective == 0.0
    # Images without pairs still take their visits: each shrinks w and
    # advances the step count. One epoch over duo, solo and an image without
    # candidates (N = 3): duo steps to w = eta_1 * (0.5 - -0.5) with
    # eta_1 = 3/2, then solo and the empty image shrink w by 1 - eta_t/3.
    empty = make_record("empty", labels=[])
    one_epoch = train_full_rank_baseline(Dataset((rec2, rec1, empty)), tiny_config(epochs=1))
    w = 1.5 * 1.0
    w *= 1.0 - (3 / (1.0 + 2)) / 3
    w *= 1.0 - (3 / (1.0 + 3)) / 3
    assert one_epoch.weights[0] == w
    assert one_epoch.final_objective == 0.5 * w * w + (1.0 - w)


def test_score_matches_manual_dot_products():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(4, 3))
    rec = make_record("dots", labels=[0.1, 0.2, 0.3, 0.4], feats=feats)
    w = rng.normal(size=3)
    model = _model_with(w)
    got = score(model, rec)
    want = [sum(w[j] * feats[i, j] for j in range(3)) for i in range(4)]
    assert_allclose(got, want, atol=1e-12)
    empty = make_record("none", labels=[])
    assert score(model, empty).shape == (0,)


def _model_with(w):
    from proprank import TrainedModel

    w = np.asarray(w, dtype=np.float64)
    return TrainedModel(
        weights=w,
        feature_dim=w.shape[0],
        training_config=TrainingConfig(),
        final_objective=0.0,
    )


def test_score_rejects_dimension_mismatch():
    rec = make_record("mis", labels=[0.5], feats=[[1.0, 2.0]])
    with pytest.raises(DataError, match="mis"):
        score(_model_with([1.0, 2.0, 3.0]), rec)


def test_rerank_orders_by_score_with_stable_ties():
    feats = [[1.0], [3.0], [2.0], [3.0]]
    rec = make_record("rr", labels=[0.0] * 4, feats=feats)
    assert rerank(_model_with([1.0]), rec) == [1, 3, 2, 0]
    assert rerank(_model_with([0.0]), rec) == [0, 1, 2, 3]
    assert rerank(_model_with([-1.0]), rec) == [0, 2, 1, 3]


def test_rerank_is_scale_invariant():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(10, 4))
    rec = make_record("scale", labels=[0.0] * 10, feats=feats)
    w = rng.normal(size=4)
    base = rerank(_model_with(w), rec)
    for alpha in (0.5, 1.0, 3.0, 100.0):
        assert rerank(_model_with(alpha * w), rec) == base


def test_model_json_round_trip():
    ds, _ = generate_feature_dataset(SynthConfig(seed=13, num_images=4, candidates_per_image=8, feature_dim=5))
    cfg = TrainingConfig(k=2, C=1e6, epochs=50)
    model = train_soft_margin(ds, cfg)
    back = model_from_dict(model_to_dict(model))
    assert np.array_equal(back.weights, model.weights)
    assert back.training_config == model.training_config
    assert back.final_objective == model.final_objective
    assert back.violation_report == model.violation_report
    assert back.provenance == model.provenance


def test_model_file_round_trip(tmp_path):
    ds, _ = generate_feature_dataset(SynthConfig(seed=14, num_images=3, candidates_per_image=6, feature_dim=4))
    model = train_soft_margin(ds, TrainingConfig(k=1, epochs=20))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert len(model.objective_history) > 0
    assert back.objective_history == model.objective_history
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(DataError, match="invalid model JSON"):
        load_model(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    with pytest.raises(DataError, match="invalid model file"):
        load_model(empty)


def test_model_from_dict_accepts_older_files():
    ds, _ = generate_feature_dataset(SynthConfig(seed=15, num_images=3, candidates_per_image=6, feature_dim=4))
    obj = model_to_dict(train_soft_margin(ds, TrainingConfig(k=1, epochs=5)))
    # Files written before the history was persisted carry a training seed, a
    # training mode and no history; files from before the step schedule was
    # fixed carry eta0 and step_decay.
    obj["config"].update(seed=7, mode="soft", hard_mode_C=1e6, eta0=None, step_decay=1.0)
    del obj["objective_history"]
    back = model_from_dict(obj)
    assert back.training_config == TrainingConfig(k=1, epochs=5)
    assert back.objective_history == ()
    # A hard-mode file trained with C = hard_mode_C and reports that C.
    obj["config"].update(mode="hard", hard_mode_C=1e5)
    assert model_from_dict(obj).training_config == TrainingConfig(k=1, C=1e5, epochs=5)
    del obj["config"]["hard_mode_C"]
    assert model_from_dict(obj).training_config == TrainingConfig(k=1, C=1e6, epochs=5)


# ---------------------------------------------------------------------------
# Both trainers against the descent loop on materialized rows (tests/oracles.py)


def _geometric_4x1000():
    return label_dataset(generate_geometric_dataset(
        SynthConfig(seed=0, num_images=4, candidates_per_image=1000, mode="geometric")
    ))


def _feature_set(seed, images, candidates, dim, **kw):
    return generate_feature_dataset(SynthConfig(
        seed=seed, num_images=images, candidates_per_image=candidates, feature_dim=dim, **kw,
    ))[0]


PARTIAL_CASES = {
    "per-image-slack": (
        lambda: _feature_set(21, 12, 15, 6, noise_sigma=0.1),
        TrainingConfig(k=3, epochs=150, convergence_tol=0.0),
    ),
    "per-row-slack": (
        lambda: _feature_set(21, 12, 15, 6, noise_sigma=0.1),
        TrainingConfig(k=3, epochs=150, convergence_tol=0.0, per_image_slack=False),
    ),
    "large-C": (
        lambda: _feature_set(11, 6, 12, 8),
        TrainingConfig(k=2, C=1e6, epochs=1000, convergence_tol=0.0),
    ),
    "early-stopping": (
        lambda: _feature_set(22, 10, 14, 5, noise_sigma=0.1),
        TrainingConfig(k=3, epochs=2000, convergence_tol=1e-6),
    ),
    "geometric-4x1000": (_geometric_4x1000, TrainingConfig(k=10)),
}


@pytest.mark.parametrize("case", PARTIAL_CASES)
def test_partial_model_is_bit_identical_to_the_materialized_loop(case):
    make, cfg = PARTIAL_CASES[case]
    ds = make()
    model = train_soft_margin(ds, cfg)
    blocks, num_pos = partial_row_blocks(ds, cfg.k)
    w, best, history = materialized_descent(blocks, cfg, every_violated_row=not cfg.per_image_slack)
    assert np.any(w != 0.0)
    assert model.weights.tobytes() == w.tobytes()
    assert model.final_objective == best
    assert model.objective_history == tuple(history)
    assert model.violation_report == violation_report(w, blocks, num_pos)
    if case == "early-stopping":
        assert len(history) < cfg.epochs


def _assert_baseline_matches_materialized(ds, cfg):
    model = train_full_rank_baseline(ds, cfg)
    w, best, _ = materialized_descent(pair_row_blocks(ds), replace(cfg, per_image_slack=False), every_violated_row=False)
    assert np.max(np.abs(model.weights - w)) <= 1e-9 * np.max(np.abs(w))
    assert abs(model.final_objective - best) <= 1e-9 * abs(best)


def test_full_rank_baseline_matches_materialized_pairs_on_tiny_instances():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        instance, _ = random_instance(rng)
        cfg = TrainingConfig(k=1, C=float(rng.uniform(0.3, 2.0)), epochs=300, convergence_tol=0.0)
        _assert_baseline_matches_materialized(make_dataset(instance, prefix=f"fb{trial}"), cfg)


def test_full_rank_baseline_matches_materialized_pairs_at_benchmark_scale():
    # The first 25 images of the seed-0 feature-only set of 250 x 40 at d = 32.
    ds = _feature_set(0, 250, 40, 32, noise_sigma=0.02)
    subset = Dataset(ds.records[:25], ds.feature_dim)
    _assert_baseline_matches_materialized(subset, TrainingConfig(k=10, epochs=200, convergence_tol=0.0))


def test_full_rank_baseline_memory_stays_flat_at_a_thousand_candidates():
    # 4 x 499500 pairs at d = 12: materialized difference rows alone take 192 MB.
    ds = _geometric_4x1000()
    tracemalloc.start()
    try:
        model = train_full_rank_baseline(ds, TrainingConfig(k=10, epochs=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.objective_history) == 5
    assert peak < 64 * 2**20
