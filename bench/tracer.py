"""In-memory span tracing of proprank's public functions, installed from outside.

A traced call records a span: function name, start, end and the index of the
span that was open when it began (its parent). Wrappers are installed at
every name a caller can reach the function by, so a call from
``proprank.ranking`` to its imported ``dataset_digest`` nests correctly under
the training span. Self time is a span's duration minus the part of it that
its children cover; every span's self time is charged to exactly one layer,
so the layers partition the traced time.

Per-pair functions such as ``iou`` are deliberately not wrapped: they run
once per box pair, so a span around each call would cost more than the call.
The finest spans are per box (``describe_box``) and per record
(``build_*_constraints``).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# (module, attribute, layer metric). A dotted attribute names a method.
TRACE_PLAN: tuple[tuple[str, str, str], ...] = (
    ("proprank.core", "read_dataset", "core.parse_s"),
    ("proprank.core", "dataset_to_lines", "core.serialize_s"),
    ("proprank.core", "dataset_digest", "core.digest_s"),
    ("proprank.core", "label_dataset", "core.label_s"),
    ("proprank.features", "describe_box", "features.describe_s"),
    ("proprank.features", "featurize_dataset", "features.featurize_self_s"),
    ("proprank.features", "PgmDirectory.get", "features.pgm_read_s"),
    ("proprank.ranking", "build_partial_constraints", "ranking.partition_s"),
    ("proprank.ranking", "build_full_constraints", "ranking.partition_s"),
    ("proprank.ranking", "train_soft_margin", "ranking.train_self_s"),
    ("proprank.ranking", "train_full_rank_baseline", "ranking.train_self_s"),
    ("proprank.ranking", "rerank", "ranking.score_s"),
    ("proprank.ranking", "score", "ranking.score_s"),
    ("proprank.ranking", "save_model", "ranking.model_io_s"),
    ("proprank.ranking", "load_model", "ranking.model_io_s"),
    ("proprank.ranking", "objective", "ranking.objective_s"),
    ("proprank.metrics", "evaluate", "metrics.evaluate_self_s"),
    ("proprank.metrics", "report", "metrics.evaluate_self_s"),
    ("proprank.metrics", "render_text", "metrics.render_s"),
    ("proprank.metrics", "render_csv", "metrics.render_s"),
    ("proprank.cli", "main", "cli.self_s"),
    ("proprank.synthdata", "generate_geometric_dataset", "synthdata.generate_s"),
    ("proprank.synthdata", "generate_feature_dataset", "synthdata.generate_s"),
)

LAYER_TIMES = tuple(dict.fromkeys(layer for _, _, layer in TRACE_PLAN))


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_read(counts: Counter, args, kwargs, result) -> None:
    counts["core.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_digest(counts: Counter, args, kwargs, result) -> None:
    counts["core.digest_calls"] += 1


def _count_featurize(counts: Counter, args, kwargs, result) -> None:
    dataset = _arg(args, kwargs, 0, "dataset")
    counts["features.boxes"] += sum(rec.num_candidates for rec in dataset.records)
    counts["features.failures"] += len(result[1])


def _count_partial(counts: Counter, args, kwargs, result) -> None:
    dataset = _arg(args, kwargs, 0, "dataset")
    k = _arg(args, kwargs, 1, "config").k
    counts["ranking.steps"] += len(result.objective_history) * len(dataset.records)
    counts["ranking.constraints"] += sum(
        k * min(rec.num_candidates - k, 2 * k) for rec in dataset.records
    )


def _count_pairs(counts: Counter, args, kwargs, result) -> None:
    dataset = _arg(args, kwargs, 0, "dataset")
    counts["ranking.steps"] += len(result.objective_history) * len(dataset.records)
    counts["ranking.constraints"] += sum(
        rec.num_candidates * (rec.num_candidates - 1) // 2 for rec in dataset.records
    )


def _count_evaluate(counts: Counter, args, kwargs, result) -> None:
    dataset = _arg(args, kwargs, 0, "dataset")
    counts["metrics.iou_evals"] += sum(
        len(rec.groundtruth) * rec.num_candidates for rec in dataset.records
    )


# Counts derived from each call's arguments and result, never from timing.
COUNTERS: dict[str, Callable] = {
    "read_dataset": _count_read,
    "dataset_digest": _count_digest,
    "featurize_dataset": _count_featurize,
    "train_soft_margin": _count_partial,
    "train_full_rank_baseline": _count_pairs,
    "evaluate": _count_evaluate,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name.rsplit(".", 1)[-1])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patched: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, layer in TRACE_PLAN:
                owner: object = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    continue  # the function is gone; its layer reads zero
                name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
                self.layer_of[name] = layer
                wrapper = self._wrap(name, original)
                owners = [owner] if path else _proprank_modules()
                for holder in owners:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patched.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def layer_seconds(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per layer over spans[first:last], which must be whole trees.

        The serialization a digest runs is charged to core.digest_s, so that
        core.serialize_s is the cost of writing datasets and core.digest_s the
        whole cost of hashing one.
        """
        spans = self.spans[first:last]
        rebased = [Span(s.name, s.start, s.end, s.parent - first if s.parent >= 0 else -1) for s in spans]
        layers = [self.layer_of[s.name] for s in rebased]
        totals = dict.fromkeys(LAYER_TIMES, 0.0)
        for index, (span, own) in enumerate(zip(rebased, self_times(rebased))):
            layer = layers[index]
            if layer == "core.serialize_s" and span.parent >= 0 and layers[span.parent] == "core.digest_s":
                layer = "core.digest_s"
            totals[layer] += own
        return totals

    def root_seconds(self, first: int = 0, last: int | None = None) -> float:
        return sum(s.end - s.start for s in self.spans[first:last] if s.parent < 0)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}) + "\n")


def _proprank_modules() -> list[object]:
    """Every loaded proprank module: each is a place a caller may look a function up."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "proprank" or name.startswith("proprank."))
    ]
