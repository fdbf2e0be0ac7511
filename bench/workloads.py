"""The three benchmark workloads, their seeded input generators and their checks.

Every workload is a closed loop with one caller: the next call starts only
when the previous one has returned. ``setup()`` makes the inputs from the
seed; ``job()`` runs one timed repetition and returns its stage times, the
operations it attempted and failed, and the counts the trace reports;
``after_job()`` times, untraced, what must stay out of job_s. The program
only ever sees the generated files or objects, through the public API or
``proprank.cli.main``.

Functions of proprank are always looked up as module attributes at call
time (``ranking.rerank(...)``), so that a traced repetition goes through the
wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from proprank import cli, core, features, metrics, ranking, synthdata

clock = time.perf_counter

# Training images of hog-online come from a seed no run uses for its scenes.
TRAIN_SEED_OFFSET = 1 << 62
MAX_SEED = TRAIN_SEED_OFFSET - 1
SCENE_STREAM = 1 << 32


@dataclass
class JobResult:
    """One timed repetition. times holds seconds per stage, job_s included."""

    times: dict[str, float]
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    image_s: list[float] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # output name -> sha256
    quality: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; report it on stderr if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_permutation(order, n: int) -> bool:
    return sorted(int(i) for i in order) == list(range(n))


def _history_ok(model, zero_objective: float) -> bool:
    history = model.objective_history
    return (
        bool(np.all(np.isfinite(model.weights)))
        and all(b <= a for a, b in zip(history, history[1:]))
        and model.final_objective <= zero_objective
    )


# ---------------------------------------------------------------------------
# geo-cli: the user's batch job through the command line


@dataclass(frozen=True)
class GeoScale:
    images: int = 4
    candidates: int = 1000
    objects: int = 2
    k: int = 10


class GeoCli:
    """synth (set-up), then label -> train -> rerank -> eval in process."""

    name = "geo-cli"

    def __init__(self, seed: int, workdir: Path, scale: GeoScale = GeoScale()):
        self.seed, self.scale = seed, scale
        self.synth = workdir / "synth.jsonl"
        self.labeled = workdir / "labeled.jsonl"
        self.model = workdir / "model.json"
        self.reranked = workdir / "reranked.jsonl"
        self.report = workdir / "report"
        self.boxes = scale.images * scale.candidates

    def setup(self) -> None:
        s = self.scale
        rc = _cli([
            "synth", str(self.synth), "--mode", "geometric", "--seed", str(self.seed),
            "--num-images", str(s.images), "--candidates", str(s.candidates),
            "--objects", f"{s.objects},{s.objects}",
        ])
        if rc != 0:
            raise RuntimeError(f"proprank synth exited with {rc}")

    def input_bytes(self) -> bytes:
        return self.synth.read_bytes()

    def job(self, first: bool) -> JobResult:
        commands = (
            ("label_s", ["label", str(self.synth), str(self.labeled)]),
            ("train_s", ["train", str(self.labeled), str(self.model), "--k", str(self.scale.k)]),
            ("rerank_s", ["rerank", str(self.labeled), str(self.reranked), "--model", str(self.model)]),
            ("eval_s", ["eval", str(self.labeled), str(self.reranked), "--output", str(self.report)]),
        )
        times: dict[str, float] = {}
        codes: dict[str, int] = {}
        start = clock()
        for stage, argv in commands:
            t0 = clock()
            codes[stage] = _cli(argv)
            times[stage] = clock() - t0
            if codes[stage] != 0:
                break
        times["job_s"] = clock() - start

        result = JobResult(times)
        for stage, _ in commands:
            result.check(codes.get(stage) == 0, f"{stage[:-2]} command exited with {codes.get(stage)}")
        if result.failed:
            return result
        result.outputs = {
            "reranked.jsonl": _sha256_bytes(self.reranked.read_bytes()),
            "report.txt": _sha256_bytes(self.report.with_name("report.txt").read_bytes()),
            "report.csv": _sha256_bytes(self.report.with_name("report.csv").read_bytes()),
        }
        if first:  # later repetitions must reproduce these bytes exactly
            result.check(self._reranked_are_permutations(), "rerank output is not a permutation")
        report = json.loads(self.report.with_name("report.json").read_text(encoding="utf-8"))
        source, reranked = (_report_quality(entry) for entry in report["sources"])
        result.check(
            reranked["dr07_b10"] >= source["dr07_b10"] + 10.0,
            f"rerank lifted DR07@10 only from {source['dr07_b10']} to {reranked['dr07_b10']}",
        )
        model = json.loads(self.model.read_text(encoding="utf-8"))
        result.quality = {
            **reranked,
            "dr07_b10_source": source["dr07_b10"],
            "final_objective": float(model["final_objective"]),
        }
        result.counts = self._manifest_counts()
        return result

    def after_job(self, result: JobResult) -> None:
        pass

    def _reranked_are_permutations(self) -> bool:
        with open(self.reranked, encoding="utf-8") as fh:
            for line in fh:
                sources = [c.get("source_index") for c in json.loads(line)["candidates"]]
                if None in sources or not _is_permutation(sources, len(sources)):
                    return False
        return True

    def _manifest_counts(self) -> dict[str, int]:
        """Bytes the CLI hashed for its manifests and dataset bytes it wrote."""
        hashed = written = 0
        for output in (self.labeled, self.model, self.reranked, self.report.with_name("report.txt")):
            manifest = json.loads(output.with_name(output.name + ".manifest.json").read_text(encoding="utf-8"))
            hashed += sum(Path(p).stat().st_size for p in manifest["inputs"])
            written += sum(Path(p).stat().st_size for p in manifest["outputs"] if p.endswith(".jsonl"))
        return {"cli.bytes_hashed": hashed, "core.bytes_written": written}


def _cli(argv: list[str]) -> int:
    """proprank.cli.main with its table output kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _report_quality(entry: dict) -> dict[str, float]:
    dr = {(e["delta"], e["budget"]): e["value"] for e in entry["dr"]}
    mabo = {e["budget"]: e["value"] for e in entry["mabo"]}
    return {"dr07_b10": float(dr[(0.7, 10)]), "mabo_b10": float(mabo[10])}


# ---------------------------------------------------------------------------
# hog-online: per-image HOG inference from PGM scenes


@dataclass(frozen=True)
class HogScale:
    images: int = 10
    candidates: int = 100
    train_images: int = 4
    image_size: tuple[int, int] = (320, 240)
    k: int = 10


def _geometry(seed: int, scale: HogScale, images: int) -> core.Dataset:
    """Seeded boxes and groundtruth from synthdata, without its 12-d features."""
    config = synthdata.SynthConfig(
        seed=seed, num_images=images, candidates_per_image=scale.candidates,
        mode="geometric", image_size=scale.image_size,
    )
    dataset = synthdata.generate_geometric_dataset(config)
    records = tuple(
        replace(rec, candidates=tuple(replace(c, features=None) for c in rec.candidates))
        for rec in dataset.records
    )
    return core.Dataset(records)


def render_scene(record: core.ImageRecord, seed: int, index: int) -> np.ndarray:
    """8-bit scene: dim noise, with each groundtruth box a bright noisy rectangle."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | (SCENE_STREAM + index)))
    pixels = rng.uniform(0.0, 0.4, size=(record.height, record.width))
    for obj in record.groundtruth:
        b = obj.box
        y0, y1 = int(round(b.y_min)), max(int(round(b.y_max)), int(round(b.y_min)) + 1)
        x0, x1 = int(round(b.x_min)), max(int(round(b.x_max)), int(round(b.x_min)) + 1)
        pixels[y0:y1, x0:x1] = rng.uniform(0.7, 1.0, size=(y1 - y0, x1 - x0))
    return np.round(pixels * 255.0).astype(np.uint8)


def pgm_bytes(raster: np.ndarray) -> bytes:
    height, width = raster.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + raster.tobytes()


class HogOnline:
    """PGM scenes and an in-memory 1080-d model (set-up), then one image at a time."""

    name = "hog-online"

    def __init__(self, seed: int, workdir: Path, scale: HogScale = HogScale()):
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must lie in [0, {MAX_SEED}]")
        self.seed, self.scale = seed, scale
        self.images_dir = workdir / "images"
        self.hog = features.HogConfig()
        self.config = ranking.TrainingConfig(k=scale.k)
        self.boxes = scale.images * scale.candidates
        self.scenes: core.Dataset | None = None
        self.train_set: core.Dataset | None = None
        self.model = None
        self.rankings: dict[str, list[int]] = {}

    def setup(self) -> None:
        s = self.scale
        self.images_dir.mkdir(parents=True, exist_ok=True)
        self.scenes = _geometry(self.seed, s, s.images)
        for j, rec in enumerate(self.scenes.records):
            (self.images_dir / f"{rec.image_id}.pgm").write_bytes(pgm_bytes(render_scene(rec, self.seed, j)))

        train_seed = self.seed + TRAIN_SEED_OFFSET
        train_set = _geometry(train_seed, s, s.train_images)
        in_memory = {
            rec.image_id: features.GrayImage(rec.width, rec.height, render_scene(rec, train_seed, j) / 255.0)
            for j, rec in enumerate(train_set.records)
        }
        self.train_set, failures = features.featurize_dataset(train_set, in_memory, self.hog)
        if failures:
            raise RuntimeError(f"featurizing the training scenes failed: {failures[:3]}")
        self.model = ranking.train_soft_margin(self.train_set, self.config, hog_config=self.hog)

    def input_bytes(self) -> bytes:
        return b"".join(p.read_bytes() for p in sorted(self.images_dir.glob("*.pgm")))

    def job(self, first: bool) -> JobResult:
        images = features.PgmDirectory(self.images_dir)
        dim = self.hog.dimension
        result = JobResult({})
        self.rankings = {}
        rerank_s = 0.0
        for rec in self.scenes.records:
            t0 = clock()
            featurized, failures = features.featurize_dataset(core.Dataset((rec,)), images, self.hog)
            t1 = clock()
            order = ranking.rerank(self.model, featurized.records[0])
            t2 = clock()
            result.image_s.append(t2 - t0)
            rerank_s += t2 - t1
            feats = featurized.records[0].features_matrix() if not failures else np.zeros((0, 0))
            result.check(
                not failures
                and feats.shape == (rec.num_candidates, dim)
                and bool(np.all(np.isfinite(feats)))
                and float(feats.min()) >= 0.0
                and float(feats.max()) <= 1.0
                and _is_permutation(order, rec.num_candidates),
                f"{rec.image_id}: featurize failures {failures[:1]}, features {feats.shape}, "
                "or a rerank that is not a permutation",
            )
            self.rankings[rec.image_id] = order
        # job_s sums the per-image calls, leaving the checks above out.
        result.times = {"job_s": sum(result.image_s), "rerank_s": rerank_s}
        result.outputs = {"rankings": _sha256_bytes(json.dumps(self.rankings, sort_keys=True).encode())}
        return result

    def after_job(self, result: JobResult) -> None:
        """Training and evaluation, timed outside the per-image loop and untraced.

        Retraining on the set-up's featurized scenes gives train_s one sample
        per repetition; it must reproduce the set-up model exactly.
        """
        t0 = clock()
        model = ranking.train_soft_margin(self.train_set, self.config, hog_config=self.hog)
        result.times["train_s"] = clock() - t0
        result.check(
            model.final_objective == self.model.final_objective
            and bool(np.array_equal(model.weights, self.model.weights)),
            "retraining on the same scenes gave a different model",
        )
        t0 = clock()
        report = metrics.evaluate(self.scenes, self.rankings, metrics.EvalConfig())
        result.times["eval_s"] = clock() - t0
        result.quality = {
            "dr07_b10": report.dr[(0.7, 10)],
            "mabo_b10": report.mabo[10],
            "final_objective": self.model.final_objective,
        }


# ---------------------------------------------------------------------------
# solver-feat: the subgradient solver on in-memory feature data


@dataclass(frozen=True)
class SolverScale:
    images: int = 250
    candidates: int = 40
    dim: int = 32
    noise: float = 0.02
    epochs: int = 200
    baseline_images: int = 25
    k: int = 10


class SolverFeat:
    """Feature-only data (set-up), then fixed-epoch partial and all-pairs training."""

    name = "solver-feat"

    def __init__(self, seed: int, workdir: Path, scale: SolverScale = SolverScale()):
        self.seed, self.scale = seed, scale
        # convergence_tol=0 disables early stopping, so every run does the same work.
        self.config = ranking.TrainingConfig(k=scale.k, epochs=scale.epochs, convergence_tol=0.0)
        self.dataset: core.Dataset | None = None
        self.boxes = scale.images * scale.candidates

    def setup(self) -> None:
        s = self.scale
        config = synthdata.SynthConfig(
            seed=self.seed, num_images=s.images, candidates_per_image=s.candidates,
            feature_dim=s.dim, noise_sigma=s.noise,
        )
        self.dataset, _ = synthdata.generate_feature_dataset(config)

    def input_bytes(self) -> bytes:
        return b"".join(c.features.tobytes() for rec in self.dataset.records for c in rec.candidates)

    def job(self, first: bool) -> JobResult:
        s, config, dataset = self.scale, self.config, self.dataset
        subset = core.Dataset(dataset.records[: s.baseline_images], dataset.feature_dim)
        start = clock()
        model = ranking.train_soft_margin(dataset, config)
        t1 = clock()
        baseline = ranking.train_full_rank_baseline(subset, config)
        t2 = clock()
        orders = [ranking.rerank(model, rec) for rec in dataset.records]
        t3 = clock()
        partitions = [ranking.build_partial_constraints(rec, config) for rec in dataset.records]
        recomputed = ranking.objective(model.weights, dataset, partitions, config)
        t4 = clock()
        result = JobResult({
            "job_s": t4 - start, "train_s": t1 - start, "baseline_train_s": t2 - t1,
            "rerank_s": t3 - t2, "eval_s": t4 - t3,
        })
        pairs = sum(r.num_candidates * (r.num_candidates - 1) // 2 for r in subset.records)
        result.check(_history_ok(model, config.C * len(dataset)), "partial model: non-finite weights, "
                     "a rising objective history or an objective above C*N")
        result.check(_history_ok(baseline, config.C * pairs), "baseline model: non-finite weights, "
                     "a rising objective history or an objective above C*pairs")
        result.check(all(_is_permutation(o, r.num_candidates) for o, r in zip(orders, dataset.records)),
                     "rerank output is not a permutation")
        result.check(
            abs(recomputed - model.final_objective) <= 1e-9 * max(1.0, abs(recomputed)),
            f"objective() gives {recomputed!r} for the model, training reported {model.final_objective!r}",
        )
        result.quality = {
            "final_objective": model.final_objective,
            "baseline_final_objective": baseline.final_objective,
        }
        result.outputs = {"objective": repr(model.final_objective)}
        return result

    def after_job(self, result: JobResult) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (GeoCli, HogOnline, SolverFeat)}
