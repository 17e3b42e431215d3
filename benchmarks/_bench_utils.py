"""Small helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["emit", "mean", "paper_scale", "time_pair", "time_per_call", "write_results"]


def emit(title: str, body: str) -> None:
    """Print a reproduced figure/table (shown with ``pytest -s`` or on failure)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")


def mean(values) -> float:
    """Arithmetic mean of a non-empty sequence."""
    values = list(values)
    return sum(values) / len(values)


def paper_scale() -> bool:
    """True when ``REPRO_BENCH_SCALE=paper`` selects the full parameterisation."""
    from repro.experiments.config import PAPER_SWEEP, sweep_from_env

    return sweep_from_env() is PAPER_SWEEP


def write_results(name: str, payload: dict) -> Path:
    """Write ``payload`` as ``<results dir>/<name>.json`` and return the path.

    The one results writer of the benchmark modules: every file lands in
    ``$REPRO_BENCH_DIR`` (default ``bench-results``), which CI uploads.
    """
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "bench-results"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def time_per_call(fn, *, min_reps: int, budget_s: float = 1.0) -> float:
    """Best-of-rounds mean wall time of ``fn`` (seconds per call).

    The shared timing harness of the backend benchmarks — one definition so
    every speedup number is measured the same way.  Each round averages
    ``min_reps`` calls (amortising timer overhead); the *minimum* round is
    returned because external interference (noisy CI neighbours, GC
    pauses) only ever adds time — the min is the robust estimator of the
    true cost.  Six rounds make a single interference burst very unlikely
    to pollute every round; ``budget_s`` caps the total measurement time.
    """
    fn()  # warm caches: activity windows, hop rows, quadrant indexes
    best = float("inf")
    total = 0.0
    for _ in range(6):
        reps = min_reps
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
        total += elapsed
        if total > budget_s:
            break
    return best


def time_pair(fn_a, fn_b, *, min_reps: int, budget_s: float = 2.0) -> tuple[float, float]:
    """Interleaved :func:`time_per_call` for a speedup ratio's two sides.

    Timing the sides in two disjoint windows lets machine-load drift
    between the windows masquerade as a speedup change; alternating the
    rounds gives both sides the same opportunity to catch the machine at
    its fastest, so the ratio of the two minima is stable under drift.
    """

    fn_a()
    fn_b()
    best_a = best_b = float("inf")
    total = 0.0
    for _ in range(6):
        for _ in range(2):  # a/b/a/b ... twice per round
            start = time.perf_counter()
            for _ in range(min_reps):
                fn_a()
            elapsed = time.perf_counter() - start
            best_a = min(best_a, elapsed / min_reps)
            total += elapsed
            start = time.perf_counter()
            for _ in range(min_reps):
                fn_b()
            elapsed = time.perf_counter() - start
            best_b = min(best_b, elapsed / min_reps)
            total += elapsed
        if total > budget_s:
            break
    return best_a, best_b
