"""The machine's speed, timed with a fixed kernel that shares no code with proprank.

The shared machine the benchmark runs on changes speed by up to 2x for
seconds to minutes at a time (its host is busy, not the guest: CPU time rises
with wall time), and every time the benchmark takes moves with it. Timing
this kernel between repetitions tells how fast the machine ran during the
run, so the runner can report times at one reference speed. The kernel mixes
the kinds of work proprank does: small matrix-vector products in a Python
loop (the solver and the scorer), image-sized array arithmetic (HOG), and a
JSON round trip with a hash (the core layer's files and digests).

numpy is imported here, so import this module only after the runner has
pinned BLAS to one thread.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

# Seconds the kernel takes at the reference speed, about its median on the
# 2-vCPU machine the benchmark was sized on. Changing it rescales every
# reported time alike; it must stay fixed for results to compare.
REFERENCE_S = 0.05

_rng = np.random.default_rng(0)
_ROWS = _rng.random((40, 32))
_WEIGHTS = _rng.random(32)
_PATCH = _rng.random((64, 64))
_RECORDS = [{"index": i, "box": [1.5, 2.5, 30.0, 40.0], "features": [0.25] * 12} for i in range(1500)]


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(3000):
        scores = _ROWS @ _WEIGHTS
        total += float(scores[int(np.argmax(scores))])
    for _ in range(60):
        gy, gx = np.gradient(_PATCH)
        hist, _ = np.histogram(np.arctan2(gy, gx), bins=9, weights=np.hypot(gx, gy))
        total += float(hist[0])
    text = json.dumps(_RECORDS)
    total += len(json.loads(text)) + hashlib.sha256(text.encode()).digest()[0]
    elapsed = time.perf_counter() - start
    if not total > 0.0:  # keeps the work from being skipped and checks it ran
        raise AssertionError("calibration kernel computed nothing")
    return elapsed
