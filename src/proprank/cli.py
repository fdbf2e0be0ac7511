"""Command line interface.

Subcommands: label, featurize, train, rerank, eval, synth, report. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. Logs go to
standard error; data goes to files or standard output. Every command
validates its inputs and computes results before writing anything.

main() owns the run protocol: it starts the clock, runs the command, writes
the manifest and maps errors to exit codes. A command only computes, writes
its outputs and returns the inputs it read, each with the sha256 of the bytes
its reader parsed, and the paths it wrote. Every successful run that writes
files leaves a <output>.manifest.json beside its primary output, the first
path it returns.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Candidates,
    DataError,
    Dataset,
    ImageRecord,
    atomic_write_text,
    beside,
    json_field,
    json_value,
    label_dataset,
    read_dataset,
    read_json,
    write_dataset,
)
from .features import HogConfig, PgmDirectory, featurize_dataset
from .metrics import EvalConfig, identity_rankings, render_csv, render_text, report, report_from_dict
from .ranking import (
    NumericError,
    TrainingConfig,
    model_from_dict,
    rerank,
    save_model,
    train_full_rank_baseline,
    train_soft_margin,
)
from .synthdata import SynthConfig, generate_feature_dataset, generate_geometric_dataset, synth_metadata

logger = logging.getLogger("proprank")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _write_manifest(args: argparse.Namespace, inputs: Inputs, outputs: list[Path], started: float) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": args.command,
        "arguments": {k: str(v) if isinstance(v, Path) else v for k, v in resolved.items()},
        "config_digest": hashlib.sha256(
            json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest(),
        "inputs": {str(p): digest for p, digest in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    atomic_write_text(beside(outputs[0], ".manifest.json"), json.dumps(manifest, indent=2) + "\n")


def _parse_list(text: str, what: str, kind: type = float, pair: str = "") -> tuple:
    """Comma-separated values of one kind; with pair (e.g. "lo,hi") exactly two of them."""
    try:
        values = tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{what} must be a comma-separated list of {noun}") from exc
    if pair and len(values) != 2:
        raise UsageError(f"{what} must be '{pair}'")
    return values


def _joined(values: tuple) -> str:
    """A tuple default as the comma-separated text that _parse_list reads back."""
    return ",".join(map(str, values))


def _write_tables(base: Path | None, tables: dict[str, str]) -> list[Path]:
    """Print the text table; given a base path, also write each table to base + its suffix."""
    sys.stdout.write(tables[".txt"])
    if base is None:
        return []
    paths = [beside(base, suffix) for suffix in tables]
    for path, text in zip(paths, tables.values()):
        atomic_write_text(path, text)
    return paths


# ---------------------------------------------------------------------------
# Commands


# Each input path with the SHA-256 of the bytes its reader parsed; then the paths written.
Inputs = dict[Path, str]
Paths = tuple[Inputs, list[Path]]


def cmd_label(args: argparse.Namespace) -> Paths:
    dataset = read_dataset(args.input)
    labeled = label_dataset(dataset)
    objects = sum(len(r.groundtruth) for r in labeled.records)
    candidates = sum(r.num_candidates for r in labeled.records)
    written = write_dataset(labeled, args.output, dataset)
    logger.info(
        "labeled %d records (%d groundtruth objects, %d candidates) -> %s",
        len(labeled.records), objects, candidates, args.output,
    )
    return {args.input: dataset.source_sha256}, written


def _hog_config_from(args: argparse.Namespace) -> HogConfig:
    return HogConfig(
        resize_w=args.resize_w,
        resize_h=args.resize_h,
        cell_size=args.cell_size,
        orientation_bins=args.bins,
        block_size=args.block_size,
        block_stride=args.block_stride,
        clip_value=args.clip,
    )


def cmd_featurize(args: argparse.Namespace) -> Paths:
    dataset = read_dataset(args.input)
    config = _hog_config_from(args)
    images = PgmDirectory(args.images)
    featurized, failures = featurize_dataset(dataset, images, config)
    for failure in failures:
        logger.warning("featurize: %s", failure)
    written = write_dataset(featurized, args.output)
    meta_path = beside(args.output, ".meta.json")
    atomic_write_text(meta_path, json.dumps({"hog_config": config.to_dict()}, indent=2) + "\n")
    logger.info(
        "featurized %d records (%d failures, dimension %d) -> %s",
        len(featurized.records), len(failures), config.dimension, args.output,
    )
    return {args.input: dataset.source_sha256}, [*written, meta_path]


def _sidecar_hog_config(dataset_path: Path) -> tuple[HogConfig | None, Inputs]:
    """The HOG geometry in the dataset's <input>.meta.json, and the sidecar
    with the sha256 of the bytes decoded as an input; None and no input
    when there is no sidecar. A synth sidecar has no hog_config: its
    dataset has no HOG features."""
    meta_path = beside(dataset_path, ".meta.json")
    if not meta_path.is_file():
        return None, {}

    def hog_config_of(meta) -> HogConfig | None:
        hog_config = json_field(json_value(meta, dict, "sidecar"), "hog_config", default=None)
        return None if hog_config is None else HogConfig.from_dict(hog_config)

    hog_config, sha256 = read_json(meta_path, hog_config_of, "sidecar")
    return hog_config, {meta_path: sha256}


def cmd_train(args: argparse.Namespace) -> Paths:
    dataset = read_dataset(args.input)
    config = TrainingConfig(
        k=args.k,
        C=args.C,
        epochs=args.epochs,
        convergence_tol=args.convergence_tol,
        per_image_slack=not args.per_constraint_slack,
    )
    trainer = train_full_rank_baseline if args.constraints == "full" else train_soft_margin
    hog_config, sidecar = _sidecar_hog_config(args.input)
    model = trainer(dataset, config, hog_config=hog_config)
    save_model(model, args.output)
    logger.info(
        "trained on %d images in %d epochs: final objective %.6g -> %s",
        len(dataset.records), len(model.objective_history), model.final_objective, args.output,
    )
    if model.violation_report is not None:  # the all-pairs baseline has none
        logger.info("violation report: %s", json.dumps(model.violation_report))
    return {args.input: dataset.source_sha256, **sidecar}, [args.output]


def _reordered(rec: ImageRecord, order: list[int]) -> ImageRecord:
    """rec with its candidates in the given order, each keeping its source_index
    or, when rec has none, taking its position in rec."""
    cands, sources = rec.candidates, rec.candidates.source_index
    kept = order if sources is None else [sources[i] for i in order]
    labels = None if cands.labels is None else cands.labels[order]
    features = None if cands.features is None else cands.features[order]
    return replace(rec, candidates=Candidates(cands.boxes[order], labels, features, tuple(kept)))


def cmd_rerank(args: argparse.Namespace) -> Paths:
    dataset = read_dataset(args.input)
    model, model_sha256 = read_json(args.model, model_from_dict, "model")
    sidecar: Inputs = {}
    if model.hog_config is not None:
        hog_config, sidecar = _sidecar_hog_config(args.input)
        if hog_config is not None and hog_config != model.hog_config:
            raise DataError(
                f"HOG geometry of the dataset ({hog_config.to_dict()}) does not match "
                f"the model's ({model.hog_config.to_dict()})"
            )
    out_records = [_reordered(rec, rerank(model, rec)) for rec in dataset.records]
    written = write_dataset(Dataset(tuple(out_records), dataset.feature_dim), args.output, dataset)
    logger.info("reranked %d records -> %s", len(out_records), args.output)
    return {args.input: dataset.source_sha256, args.model: model_sha256, **sidecar}, written


def _recover_rankings(base: Dataset, other: Dataset) -> dict[str, list[int]]:
    """Ranking of base's candidates encoded by the other dataset's order.

    label and rerank copy boxes exactly, so each candidate takes the first
    unused base candidate with an equal box (as floats compare, so -0.0 is
    0.0) and the file's own order is the ranking; the metrics read only the
    boxes. A candidate whose box no unused base candidate has is a DataError.
    """
    rankings: dict[str, list[int]] = {}
    for rec in other.records:
        base_boxes, boxes = base.get(rec.image_id).candidates.boxes, rec.candidates.boxes
        n = len(boxes)
        if len(base_boxes) != n:
            raise DataError(f"{rec.image_id}: candidate counts differ ({len(base_boxes)} vs {n})")
        # A stable sort of both records' boxes by their bits (+ 0.0 makes -0.0 0.0) puts each
        # run of equal boxes in file order, base's first: the k-th of the other's in a run
        # takes the run's k-th base candidate, if it has one.
        keys = (np.concatenate([base_boxes, boxes]) + 0.0).view(np.uint64)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new_run = np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])[: 2 * n]
        run = np.cumsum(new_run) - 1  # the run of each place in the sort
        run_start = np.flatnonzero(new_run)
        run_base = np.bincount(run[order < n], minlength=len(run_start))  # base candidates in each run
        at = np.flatnonzero(order >= n)  # the places of the other's candidates
        run_of = run[at]
        k = at - run_start[run_of] - run_base[run_of]  # the other's candidates before each in its run
        matched = k < run_base[run_of]
        if not matched.all():
            j = int((order[at[~matched]] - n).min())
            raise DataError(
                f"{rec.image_id}: candidate {j} box {boxes[j].tolist()} does not match the dataset's candidates"
            )
        ranking = np.empty(n, dtype=np.int64)
        ranking[order[at] - n] = order[run_start[run_of] + k]
        rankings[rec.image_id] = ranking.tolist()
    return rankings


def cmd_eval(args: argparse.Namespace) -> Paths:
    dataset = read_dataset(args.dataset)
    other = read_dataset(args.reranked)
    ids_a = {r.image_id for r in dataset.records}
    ids_b = {r.image_id for r in other.records}
    if ids_a != ids_b:
        missing = sorted(ids_a ^ ids_b)[:5]
        raise DataError(f"datasets do not cover the same images (first differences: {missing})")
    config = EvalConfig(
        iou_thresholds=_parse_list(args.thresholds, "--thresholds"),
        proposal_budgets=_parse_list(args.budgets, "--budgets", int),
        strict=not args.non_strict,
    )
    comparison = report(
        dataset,
        identity_rankings(dataset),
        _recover_rankings(dataset, other),
        config,
        label_a=args.label_a,
        label_b=args.label_b,
    )
    outputs = _write_tables(args.output, {
        ".txt": comparison.text,
        ".csv": comparison.csv,
        ".json": json.dumps(comparison.to_dict(), indent=2) + "\n",
    })
    if outputs:
        logger.info("wrote report to %s.{txt,csv,json}", args.output)
    return {args.dataset: dataset.source_sha256, args.reranked: other.source_sha256}, outputs


def cmd_synth(args: argparse.Namespace) -> Paths:
    config = SynthConfig(
        seed=args.seed,
        num_images=args.num_images,
        candidates_per_image=args.candidates,
        feature_dim=args.feature_dim,
        noise_sigma=args.noise_sigma,
        mode=args.mode,
        image_size=_parse_list(args.image_size, "--image-size", int, "width,height"),
        objects_per_image=_parse_list(args.objects, "--objects", int, "lo,hi"),
        classes=args.classes,
    )
    planted = None
    if config.mode == "feature_only":
        dataset, planted = generate_feature_dataset(config)
    else:
        dataset = generate_geometric_dataset(config)
    written = write_dataset(dataset, args.output)
    meta_path = beside(args.output, ".meta.json")
    atomic_write_text(meta_path, json.dumps(synth_metadata(config, planted), indent=2) + "\n")
    logger.info("generated %d %s records -> %s", len(dataset.records), config.mode, args.output)
    return {}, [*written, meta_path]


def cmd_report(args: argparse.Namespace) -> Paths:
    (config, reports), sha256 = read_json(args.input, report_from_dict, "report")
    tables = {".txt": render_text(reports, config), ".csv": render_csv(reports, config)}
    return {args.input: sha256}, _write_tables(args.output, tables)


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = _Parser(prog="proprank", description="Train and evaluate top-k partial ranking of box proposals.")
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-epoch detail to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", parents=[], help="recompute candidate iou_labels from groundtruth")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("featurize", help="attach HOG descriptors from a directory of PGM images")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--images", type=Path, required=True, help="directory of <image_id>.pgm files")
    p.add_argument("--resize-w", type=int, default=HogConfig.resize_w)
    p.add_argument("--resize-h", type=int, default=HogConfig.resize_h)
    p.add_argument("--cell-size", type=int, default=HogConfig.cell_size)
    p.add_argument("--bins", type=int, default=HogConfig.orientation_bins)
    p.add_argument("--block-size", type=int, default=HogConfig.block_size)
    p.add_argument("--block-stride", type=int, default=HogConfig.block_stride)
    p.add_argument("--clip", type=float, default=HogConfig.clip_value)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a ranking model on a labeled, featurized dataset")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--k", type=int, default=TrainingConfig.k, help="positives per image")
    p.add_argument("--C", type=float, default=TrainingConfig.C, help="slack penalty (1e6 for hard margin)")
    p.add_argument("--epochs", type=int, default=TrainingConfig.epochs)
    p.add_argument("--convergence-tol", type=float, default=TrainingConfig.convergence_tol)
    p.add_argument("--per-constraint-slack", action="store_true",
                   help="sum a hinge per constraint instead of one slack per image")
    p.add_argument("--constraints", choices=("partial", "full"), default="partial",
                   help="partial top-k constraints or the all-pairs baseline")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="reorder candidates by model score")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="compare two orderings of the same dataset")
    p.add_argument("dataset", type=Path, help="dataset in its original candidate order")
    p.add_argument("reranked", type=Path, help="the same dataset, reordered (e.g. by rerank)")
    p.add_argument("--output", type=Path, default=None, help="base path for .txt/.csv/.json report files")
    p.add_argument("--thresholds", default=_joined(EvalConfig.iou_thresholds))
    p.add_argument("--budgets", default=_joined(EvalConfig.proposal_budgets))
    p.add_argument("--non-strict", action="store_true", help="count overlap >= threshold as covered")
    p.add_argument("--label-a", default="source-order")
    p.add_argument("--label-b", default="reranked")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("output", type=Path)
    p.add_argument("--mode", choices=("feature_only", "geometric"), default=SynthConfig.mode)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--num-images", type=int, default=SynthConfig.num_images)
    p.add_argument("--candidates", type=int, default=SynthConfig.candidates_per_image)
    p.add_argument("--feature-dim", type=int, default=SynthConfig.feature_dim)
    p.add_argument("--noise-sigma", type=float, default=SynthConfig.noise_sigma)
    p.add_argument("--image-size", default=_joined(SynthConfig.image_size))
    p.add_argument("--objects", default=_joined(SynthConfig.objects_per_image))
    p.add_argument("--classes", type=int, default=SynthConfig.classes)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="re-render a saved eval report")
    p.add_argument("input", type=Path)
    p.add_argument("--output", type=Path, default=None, help="base path for .txt/.csv files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    started = time.monotonic()
    try:
        inputs, outputs = args.func(args)
        if outputs:
            _write_manifest(args, inputs, outputs, started)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        logger.error("%s", exc)
        return 2
    except NumericError as exc:
        logger.error("numeric failure: %s", exc)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
