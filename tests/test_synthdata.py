import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from proprank import (
    DataError,
    SynthConfig,
    TrainingConfig,
    dataset_digest,
    dataset_to_lines,
    generate_feature_dataset,
    generate_geometric_dataset,
    label_dataset,
    rank_by_label,
    synth_metadata,
    train_soft_margin,
)
from proprank.synthdata import GEOMETRIC_FEATURE_DIM


def test_synth_config_validation():
    with pytest.raises(DataError):
        SynthConfig(seed=-1)
    with pytest.raises(DataError):
        SynthConfig(seed=2**63)
    with pytest.raises(DataError):
        SynthConfig(num_images=0)
    with pytest.raises(DataError):
        SynthConfig(feature_dim=1)
    with pytest.raises(DataError):
        SynthConfig(noise_sigma=-0.5)
    with pytest.raises(DataError):
        SynthConfig(mode="real")
    with pytest.raises(DataError):
        SynthConfig(objects_per_image=(2, 1))
    with pytest.raises(DataError):
        SynthConfig(image_size=(4, 100))


@pytest.mark.parametrize("field, value, kind", [
    ("num_images", 2.5, "an integer"),
    ("noise_sigma", "0.1", "a real number"),
    ("seed", True, "an integer"),
    ("classes", True, "an integer"),
    ("mode", 1, "a string"),
    ("image_size", (640.7, 480), "a list of two integers"),
    ("objects_per_image", ("1", "2"), "a list of two integers"),
    ("objects_per_image", (1, 2, 3), "a list of two integers"),
    ("image_size", (True, 480), "a list of two integers"),
    ("image_size", 640, "a list of two integers"),
])
def test_synth_config_checks_field_types(field, value, kind):
    message = f"SynthConfig.{field} must be {kind}, got {value!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SynthConfig(**{field: value})


def test_synth_config_stores_a_pair_as_a_tuple_of_ints():
    config = SynthConfig(image_size=[np.int64(64), 48], objects_per_image=[2, 2])
    assert config.image_size == (64, 48) and type(config.image_size[0]) is int
    assert config.objects_per_image == (2, 2)


def test_synth_config_stores_a_real_number_as_a_float():
    for value in (1, np.int64(1), np.float32(0.5)):
        sigma = SynthConfig(noise_sigma=value).noise_sigma
        assert sigma == value and type(sigma) is float
    # An integer beyond float range used to reach numpy, which raised a TypeError.
    message = "SynthConfig.noise_sigma must be finite, got an integer beyond float range"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SynthConfig(noise_sigma=10**400)


def test_mode_mismatch_is_rejected():
    with pytest.raises(DataError):
        generate_feature_dataset(SynthConfig(mode="geometric"))
    with pytest.raises(DataError):
        generate_geometric_dataset(SynthConfig(mode="feature_only"))


def test_feature_dataset_is_byte_deterministic():
    cfg = SynthConfig(seed=42, num_images=6, candidates_per_image=9, feature_dim=5, noise_sigma=0.1)
    ds1, planted1 = generate_feature_dataset(cfg)
    ds2, planted2 = generate_feature_dataset(cfg)
    assert dataset_to_lines(ds1) == dataset_to_lines(ds2)
    assert np.array_equal(planted1, planted2)
    ds3, _ = generate_feature_dataset(SynthConfig(seed=43, num_images=6, candidates_per_image=9, feature_dim=5))
    assert dataset_to_lines(ds3) != dataset_to_lines(ds1)


def test_feature_records_are_keyed_by_image_index():
    short, _ = generate_feature_dataset(SynthConfig(seed=7, num_images=3, candidates_per_image=5, feature_dim=4))
    long, _ = generate_feature_dataset(SynthConfig(seed=7, num_images=6, candidates_per_image=5, feature_dim=4))
    assert dataset_to_lines(short) == dataset_to_lines(long)[:3]


def test_planted_vector_scores_noiseless_data_perfectly():
    cfg = SynthConfig(seed=3, num_images=8, candidates_per_image=12, feature_dim=6)
    ds, planted = generate_feature_dataset(cfg)
    assert planted.shape == (6,)
    assert planted[-1] == 0.0
    assert_allclose(np.linalg.norm(planted), 1.0)
    for rec in ds.records:
        feats = rec.features_matrix()
        assert_allclose(feats[:, -1], 1.0)  # constant intercept column
        scores = feats @ planted
        assert_allclose(scores, rec.iou_labels(), atol=1e-12)
        order = sorted(range(rec.num_candidates), key=lambda i: -scores[i])
        assert order == rank_by_label(rec)


def test_noise_perturbs_features_but_not_labels():
    clean, _ = generate_feature_dataset(SynthConfig(seed=9, num_images=3, candidates_per_image=6, feature_dim=4))
    noisy, _ = generate_feature_dataset(
        SynthConfig(seed=9, num_images=3, candidates_per_image=6, feature_dim=4, noise_sigma=0.2)
    )
    for a, b in zip(clean.records, noisy.records):
        assert a.iou_labels() == b.iou_labels()
        assert not np.allclose(a.features_matrix()[:, :-1], b.features_matrix()[:, :-1])
        assert_allclose(b.features_matrix()[:, -1], 1.0)


def test_geometric_dataset_geometry_and_labels():
    cfg = SynthConfig(seed=17, mode="geometric", num_images=10, candidates_per_image=40)
    ds = generate_geometric_dataset(cfg)
    assert ds.feature_dim == GEOMETRIC_FEATURE_DIM
    width, height = cfg.image_size
    for rec in ds.records:
        assert (rec.width, rec.height) == (width, height)
        assert 1 <= len(rec.groundtruth) <= 3
        # The labels match the pure-Python IoU oracle, not the kernel that made them.
        gt_boxes = [g.box.as_list() for g in rec.groundtruth]
        boxes = rec.candidates.boxes.tolist()
        for box, label in zip(boxes, rec.iou_labels()):
            true_best = max((oracles._iou_ref(box, g) for g in gt_boxes), default=0.0)
            assert label == true_best
        # Every groundtruth box got at least its exact copy.
        for g in gt_boxes:
            assert any(oracles._iou_ref(box, g) == 1.0 for box in boxes)


def test_geometric_dataset_is_deterministic_and_shuffled():
    cfg = SynthConfig(seed=23, mode="geometric", num_images=4, candidates_per_image=30)
    ds1 = generate_geometric_dataset(cfg)
    ds2 = generate_geometric_dataset(cfg)
    assert dataset_to_lines(ds1) == dataset_to_lines(ds2)
    # Shuffling should leave the exact copies away from the head of the list
    # in at least one record (labels not sorted descending).
    assert any(rank_by_label(rec) != list(range(rec.num_candidates)) for rec in ds1.records)


def test_geometric_features_embed_label_and_geometry():
    cfg = SynthConfig(seed=29, mode="geometric", num_images=3, candidates_per_image=20)
    ds = generate_geometric_dataset(cfg)
    for rec in ds.records:
        feats = rec.features_matrix()
        labels = np.asarray(rec.iou_labels())
        assert_allclose(feats[:, 0], labels, atol=1e-12)
        assert_allclose(feats[:, 1], 2 * labels - 1, atol=1e-12)
        assert_allclose(feats[:, 2], labels**2, atol=1e-12)
        assert_allclose(feats[:, 9], 1.0)
        for i, (x_min, y_min, x_max, y_max) in enumerate(rec.candidates.boxes.tolist()):
            bw = (x_max - x_min) / rec.width
            bh = (y_max - y_min) / rec.height
            assert_allclose(feats[i, 3], 0.5 * (x_min + x_max) / rec.width)
            assert_allclose(feats[i, 5], bw)
            assert_allclose(feats[i, 7], bw * bh)
            assert_allclose(feats[i, 8], bw / (bw + bh))


def test_geometric_most_candidates_overlap_poorly():
    # At 100 candidates the structured copies are a minority of the pool, so
    # an unranked prefix is mediocre and re-ranking has room to help.
    cfg = SynthConfig(seed=31, mode="geometric", num_images=20, candidates_per_image=100)
    ds = generate_geometric_dataset(cfg)
    labels = np.concatenate([rec.iou_labels() for rec in ds.records])
    assert 0.0 < np.mean(labels > 0.7) < 0.25
    assert np.mean(labels < 0.5) > 0.5


def test_trained_model_generalizes_to_held_out_seed():
    train_ds, _ = generate_feature_dataset(
        SynthConfig(seed=101, num_images=10, candidates_per_image=15, feature_dim=6, noise_sigma=0.05)
    )
    test_ds, _ = generate_feature_dataset(
        SynthConfig(seed=202, num_images=10, candidates_per_image=15, feature_dim=6, noise_sigma=0.05)
    )
    model = train_soft_margin(train_ds, TrainingConfig(k=3, epochs=150, convergence_tol=0.0))

    def pair_violations(w):
        bad = 0
        for rec in test_ds.records:
            scores = rec.features_matrix() @ w
            labels = np.asarray(rec.iou_labels())
            order = np.argsort(-labels)
            top, bottom = order[:3], order[-3:]
            bad += int(np.sum(scores[top][:, None] <= scores[bottom][None, :]))
        return bad

    rng = np.random.default_rng(0)
    random_dir = rng.normal(size=6)
    assert pair_violations(model.weights) < pair_violations(random_dir)
    assert pair_violations(model.weights) <= 2


def test_synth_metadata_documents_generator():
    cfg = SynthConfig(seed=1, num_images=2, candidates_per_image=5, feature_dim=4)
    ds, planted = generate_feature_dataset(cfg)
    meta = synth_metadata(cfg, planted)
    assert "Philox" in meta["prng"]["generator"]
    assert "stream" in meta["prng"]["key_scheme"]
    assert meta["config"]["seed"] == 1
    assert_allclose(meta["planted_weight"], planted)

    geo_cfg = SynthConfig(seed=2, mode="geometric")
    geo_meta = synth_metadata(geo_cfg)
    assert geo_meta["feature_dim"] == GEOMETRIC_FEATURE_DIM
    assert geo_meta["composition"]["exact_copies_per_object"] == 1
    assert "planted_weight" not in geo_meta


# dataset_digest of generated datasets: any change to a generated byte, or to
# the order of the random draws that fixes those bytes, shows here.
PINNED_DIGESTS = [
    (SynthConfig(seed=0, mode="geometric", num_images=4, candidates_per_image=1000, objects_per_image=(2, 2)),
     "ccae1c16d20b777e5fc97a692191bbf7a756b3d38fc1e9e8d3d70c8c48473148"),
    (SynthConfig(seed=1, mode="geometric", num_images=3, candidates_per_image=30, noise_sigma=0.1,
                 image_size=(320, 240)),
     "fa76e972a8ff37f660aa3390e20608337e8e4bb5aa76879b4fb4c9b35b9b74ea"),
    # 5 candidates leave no room for the 36 structured boxes of 3 objects,
    # whose draws are still made.
    (SynthConfig(seed=2, mode="geometric", num_images=2, candidates_per_image=5, objects_per_image=(3, 3)),
     "459f908b75f2b6bb375519fb863f3d280abd8ec947110edad2bbbe28bb787d60"),
    (SynthConfig(seed=3, num_images=5, candidates_per_image=7, feature_dim=6),
     "3e10f87f6a072eea87d40544314d9d242a16202f0c6cbebc22bdaf43af67aba4"),
    (SynthConfig(seed=4, num_images=5, candidates_per_image=7, feature_dim=6, noise_sigma=0.02),
     "2de51f4500efd677941cfde28f0c6ae6a278663a24f002f6ad5b64425495c981"),
]


@pytest.mark.parametrize("config, digest", PINNED_DIGESTS)
def test_generated_bytes_are_pinned(config, digest):
    if config.mode == "geometric":
        ds = generate_geometric_dataset(config)
        # The generator's labels are exactly what label computes.
        assert dataset_digest(label_dataset(ds)) == digest
    else:
        ds, _ = generate_feature_dataset(config)
    assert dataset_digest(ds) == digest


def _random_geometric_configs(count):
    rng = np.random.default_rng(20)
    edges = [
        SynthConfig(mode="geometric", num_images=2, candidates_per_image=1, image_size=(8, 8)),
        SynthConfig(mode="geometric", num_images=1, candidates_per_image=400, image_size=(2000, 2000),
                    objects_per_image=(4, 4)),
        SynthConfig(mode="geometric", num_images=2, candidates_per_image=7, image_size=(9, 2000), noise_sigma=0.1),
        SynthConfig(mode="geometric", num_images=2, candidates_per_image=60, image_size=(8, 11),
                    objects_per_image=(1, 4)),
    ]
    for i in range(count):
        lo = int(rng.integers(1, 5))
        yield SynthConfig(
            seed=int(rng.integers(0, 2**63)),
            mode="geometric",
            num_images=int(rng.integers(1, 4)),
            # Counts under 2 * hi + 12 * objects keep fewer structured boxes than were drawn.
            candidates_per_image=int(rng.integers(1, 401)) if i % 2 else int(rng.integers(1, 30)),
            image_size=(int(rng.integers(8, 2001)), int(rng.integers(8, 2001))),
            objects_per_image=(lo, int(rng.integers(lo, 5))),
            classes=int(rng.integers(1, 4)),
            noise_sigma=(0.0, 0.1)[i % 3 == 0],
        )
    yield from edges


@pytest.mark.parametrize("config", list(_random_geometric_configs(30)))
def test_geometric_dataset_matches_scalar_uniform_draws(config):
    expected = dataset_to_lines(oracles.scalar_geometric_dataset(config))
    assert dataset_to_lines(generate_geometric_dataset(config)) == expected
