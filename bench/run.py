#!/usr/bin/env python3
"""proprank benchmark: one seeded workload per run, checked and timed.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload geo-cli --seed 1 --seconds 40 --trace 0

Workloads (see ``bench/design.json`` for why each exists and what it
bypasses): ``geo-cli``, ``hog-online`` and ``solver-feat``. A run repeats
the workload's job in a closed loop for about ``--seconds`` seconds, setting
its inputs up again between repetitions. Each time metric is the median of
its samples over the whole run, at a reference machine speed: on a shared
machine whose speed switches between states for seconds to minutes at a
time, the run also times a fixed calibration kernel (``bench/speed.py``)
between repetitions and scales each sample by the kernel samples timed next
to it (see ``_untraced``). ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer self times and counts of the fastest
traced repetition instead, as measured.

Every line before the last goes to stderr or is a ``detail`` line; the last
line of stdout is the result object. The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the checkout has no
``src/proprank`` to measure. Self-tests of the harness: ``python3 -m pytest
-q bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import LAYER_TIMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESIGN = HERE / "design.json"

# The inputs are set up again between repetitions, at least SETUP_REPEATS
# times and until set-ups fill SETUP_SHARE of the run: set-up samples spread
# over the whole run like the job's, rather than all falling in its first
# seconds. A set-up rebuilds the same inputs from the same seed.
SETUP_REPEATS = 3
SETUP_SHARE = 0.2
# Share of the run spent timing the calibration kernel (bench/speed.py), and
# the fewest kernel samples in each block of them between two repetitions.
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_SAMPLES = 2
MIN_REPS = 2  # untraced repetitions, or untraced/traced pairs with --trace 1
DEFAULT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "train_s": "s",
    "rerank_s": "s",
    "eval_s": "s",
    "boxes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.parse_s": "s",
    "core.serialize_s": "s",
    "core.digest_s": "s",
    "core.digest_calls": "count",
    "core.label_s": "s",
    "core.bytes_read": "bytes",
    "core.bytes_written": "bytes",
    "features.describe_s": "s",
    "features.us_per_box": "us",
    "features.boxes": "count",
    "features.featurize_self_s": "s",
    "features.pgm_read_s": "s",
    "features.failures": "count",
    "ranking.partition_s": "s",
    "ranking.train_self_s": "s",
    "ranking.steps": "count",
    "ranking.us_per_step": "us",
    "ranking.constraints": "count",
    "ranking.score_s": "s",
    "ranking.model_io_s": "s",
    "ranking.objective_s": "s",
    "metrics.evaluate_self_s": "s",
    "metrics.iou_evals": "count",
    "metrics.render_s": "s",
    "cli.self_s": "s",
    "cli.bytes_hashed": "bytes",
    "synthdata.generate_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Metrics of one or two workloads only; printed on the detail line, not in the result.
DETAIL_UNITS = {
    "label_s": "s",
    "baseline_train_s": "s",
    "image_ms_p50": "ms",
    "image_ms_p90": "ms",
    "dr07_b10": "%",
    "dr07_b10_source": "%",
    "mabo_b10": "iou",
    "final_objective": "objective",
    "baseline_final_objective": "objective",
    "ops_failed": "ratio",
}

COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))

clock = time.perf_counter


def _fastest(values):
    return min(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


# workloads imports proprank, which is importable only once main() has put src/ on the path.


def _run_job(workload, first: bool, after: bool = False):
    """One repetition, then its untimed after_job step if asked for.

    An exception counts as a failed operation, not a crash.
    """
    from workloads import JobResult

    try:
        result = workload.job(first)
        if after and not result.failed:
            workload.after_job(result)
    except Exception:  # the loop must go on to report the failure
        traceback.print_exc()
        result = JobResult({})
        result.check(False, f"{workload.name} job raised")
    return result


def _repeat(step, seconds: float) -> list:
    """Call step(first) in a closed loop until another call would overrun seconds."""
    reps: list = []
    start = clock()
    while True:
        reps.append(step(not reps))
        elapsed = clock() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale=None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, detail metrics)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed, workdir) if scale is None else cls(seed, workdir, scale)
    return (_traced if trace else _untraced)(workload, seed, seconds, workdir, scale is None)


def _untraced(workload, seed: int, seconds: float, workdir: Path, default_scale: bool) -> tuple[dict, dict]:
    """Medians of the run's samples, each at the reference machine speed.

    A block of calibration kernel samples is timed before the first
    repetition and after each one: at least CALIBRATION_MIN_SAMPLES, and
    until the kernel has taken CALIBRATION_SHARE of the run. The machine
    keeps a speed for seconds at a time, so a repetition's times are scaled
    by speed.REFERENCE_S / the median kernel sample of the blocks on either
    side of it, and a set-up's by that of the block after it: the time the
    work would take on a machine that runs the kernel in REFERENCE_S. Every
    time metric is the median of its scaled samples. The medians as
    measured, and the median factor, are on the detail line.
    """
    import speed

    blocks: list[list[float]] = []
    setups: list[tuple[float, int]] = []  # (seconds, index of the block after it)
    factors: list[float] = []  # one per repetition
    start = clock()

    def calibrate():
        block: list[float] = []
        spent = sum(map(sum, blocks))
        while len(block) < CALIBRATION_MIN_SAMPLES or spent + sum(block) < CALIBRATION_SHARE * (clock() - start):
            block.append(speed.kernel_s())
        blocks.append(block)

    def setup():
        t0 = clock()
        workload.setup()
        setups.append((clock() - t0, len(blocks)))

    setup()
    calibrate()

    def step(first):
        result = _run_job(workload, first, after=True)
        if len(setups) < SETUP_REPEATS or sum(s for s, _ in setups[1:]) < SETUP_SHARE * (clock() - start):
            setup()
        calibrate()
        factors.append(speed.REFERENCE_S / statistics.median(blocks[-2] + blocks[-1]))
        return result

    reps = _repeat(step, seconds)
    failures = _output_failures(workload.name, reps, seed, default_scale)

    def stage(key, scaled=True):
        return _median([r.times[key] * (f if scaled else 1.0) for r, f in zip(reps, factors) if key in r.times])

    metrics = {
        "setup_s": _median([s * speed.REFERENCE_S / statistics.median(blocks[j]) for s, j in setups]),
        **{key: stage(key) for key in ("job_s", "train_s", "rerank_s", "eval_s")},
    }
    job_s = metrics["job_s"]
    metrics.update(
        boxes_per_s=workload.boxes / job_s if job_s > 0 else 0.0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    measured = {"setup_s": _median([s for s, _ in setups])}
    measured.update({key: stage(key, scaled=False) for key in ("job_s", "train_s", "rerank_s", "eval_s")})
    attempted = sum(r.attempted for r in reps) + len(failures)
    failed = sum(r.failed for r in reps) + len(failures)
    extra = {key: stage(key) for key in ("label_s", "baseline_train_s") if any(key in r.times for r in reps)}
    extra.update(reps[0].quality, ops_failed=failed / attempted)
    images = [t * 1000.0 * f for r, f in zip(reps, factors) for t in r.image_s]
    if images:
        extra.update(image_ms_p50=statistics.median(images), image_ms_p90=statistics.quantiles(images, n=10)[8])
    jobs = [r.times["job_s"] for r in reps if "job_s" in r.times]
    detail = {
        "reps": len(reps),
        "speed_factor": _median(factors),
        "calibration_samples": sum(map(len, blocks)),
        "measured_medians_s": measured,
        "job_s_reps": jobs,
        "image_samples": len(images),
        "metrics": {name: {"value": value, "unit": DETAIL_UNITS[name]} for name, value in extra.items()},
    }
    return _result(metrics, END_TO_END, attempted, failed), detail


def _traced(workload, seed: int, seconds: float, workdir: Path, default_scale: bool) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.installed():
        workload.setup()
    generate_s = tracer.layer_seconds(0)["synthdata.generate_s"]

    untraced, traced, layers, counts = [], [], [], []

    def step(first):
        plain = _run_job(workload, first)
        untraced.append(plain)
        begin, before = len(tracer.spans), Counter(tracer.counts)
        with tracer.installed():
            result = _run_job(workload, False)
        traced.append(result)
        end = len(tracer.spans)
        rep = tracer.layer_seconds(begin, end)
        rep["trace.unattributed_s"] = result.times.get("job_s", 0.0) - tracer.root_seconds(begin, end)
        layers.append(rep)
        delta = Counter(tracer.counts)
        delta.subtract(before)
        delta.update(result.counts)
        counts.append({k: int(delta.get(k, 0)) for k in COUNT_METRICS})
        return result

    _repeat(step, seconds)
    tracer.dump(workdir.parent / "traces" / f"{workload.name}-seed{seed}.json")
    reps = untraced + traced
    failures = _output_failures(workload.name, reps, seed, default_scale)
    if any(c != counts[0] for c in counts[1:]):
        failures.append(f"counts differ between traced repetitions: {counts}")
        print(failures[-1], file=sys.stderr)

    job_times = [r.times.get("job_s", float("inf")) for r in traced]
    fastest = job_times.index(min(job_times))
    metrics = {**layers[fastest], **counts[fastest], "synthdata.generate_s": generate_s}
    boxes, steps = metrics["features.boxes"], metrics["ranking.steps"]
    metrics["features.us_per_box"] = metrics["features.describe_s"] / boxes * 1e6 if boxes else 0.0
    metrics["ranking.us_per_step"] = metrics["ranking.train_self_s"] / steps * 1e6 if steps else 0.0
    traced_job = traced[fastest].times.get("job_s", 0.0)
    metrics["trace.overhead_s"] = traced_job - _fastest([r.times["job_s"] for r in untraced if "job_s" in r.times])

    stages = traced[fastest].times
    detail = {
        "traced_reps": len(traced),
        "traced_job_s": traced_job,
        "layer_sum_s": sum(metrics[name] for name in LAYER_TIMES if name != "synthdata.generate_s"),
        "claims": _check_claims(workload.name, metrics, stages),
    }
    attempted = sum(r.attempted for r in reps) + len(failures)
    failed = sum(r.failed for r in reps) + len(failures)
    return _result({k: metrics[k] for k in PER_LAYER}, PER_LAYER, attempted, failed), detail


def _output_failures(name: str, reps: list, seed: int, default_scale: bool) -> list[str]:
    """Outputs must repeat byte for byte, and match the recorded bytes at the default seed."""
    failures = []
    outputs = [r.outputs for r in reps if r.outputs]
    if any(o != outputs[0] for o in outputs[1:]):
        failures.append("outputs differ between repetitions of the same inputs")
    expected = _design().get("default_seed_outputs", {}).get(name)
    if expected and seed == DEFAULT_SEED and default_scale and outputs:
        for key, digest in expected.items():
            if outputs[0].get(key) != digest:
                failures.append(f"{key} sha256 {outputs[0].get(key)} differs from the recorded {digest}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return failures


def _design() -> dict:
    return json.loads(DESIGN.read_text(encoding="utf-8"))


def _check_claims(name: str, metrics: dict, stages: dict) -> list[dict]:
    """Evaluate the design's share claims for this workload against the traced run."""
    out = []
    for claim in _design()["share_claims"].get(name, []):
        part = sum(metrics[m] for m in claim["layers"])
        whole = stages.get(claim["of"], 0.0)
        share = part / whole if whole > 0 else 0.0
        if "largest" in claim:
            rivals = [metrics[m] for m in LAYER_TIMES if m not in claim["layers"] and m != "synthdata.generate_s"]
            holds = part >= max(rivals)
        else:
            holds = claim.get("at_least", 0.0) <= share <= claim.get("at_most", 1.0)
        out.append({"claim": claim["text"], "share": share, "holds": holds})
    return out


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("geo-cli", "hog-online", "solver-feat"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proprank" / "__init__.py").is_file():
        print(f"error: no proprank sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One process, one thread: numpy's BLAS must not spread a matvec over both CPUs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, entry in {**result["metrics"], **detail.get("metrics", {})}.items():
        print(f"{args.workload:12s} {name:28s} {entry['value']:16.6f} {entry['unit']}", file=sys.stderr)
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
