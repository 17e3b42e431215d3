"""Experiment-store benchmark: cold vs warm sweeps on a 2-scenario grid.

The store's value proposition, measured: the first (cold) pass over a grid
pays full simulation cost and populates the store; the second (warm) pass
serves every cell from disk.  Three assertions:

* **identity** — the warm records are *bit-identical* to the cold records
  (loading a cell is indistinguishable from simulating it);
* **full reuse** — the warm pass reports 100% cache hits;
* **speedup** — the warm pass is at least 10x faster than the cold pass
  (in practice it is orders of magnitude faster: sqlite lookups + shard
  reads vs per-cell deployment, colouring and broadcast simulation).

Results are written as ``BENCH_store.json`` in the benchmark results
directory (``$REPRO_BENCH_DIR``, default ``bench-results``) so CI can
upload them as an artifact.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.experiments.config import sweep_from_env
from repro.experiments.runner import run_sweep
from repro.store import ExperimentStore

from _bench_utils import emit, paper_scale as _paper_scale, write_results

SCENARIOS = ("uniform", "clustered")
SPEEDUP_TARGET = 10.0


def _grid_config():
    config = sweep_from_env()
    if not _paper_scale():
        # Two node counts keep the cold pass at a few seconds in CI while
        # leaving it ~3 orders of magnitude above the warm pass's IO cost.
        config = dataclasses.replace(config, node_counts=(50, 100))
    return config


@pytest.mark.ablation
def test_store_cold_vs_warm_sweep(tmp_path):
    """Warm >= 10x faster than cold, records bit-identical, 100% hits."""
    config = _grid_config()
    configs = [
        dataclasses.replace(config, scenario=scenario) for scenario in SCENARIOS
    ]
    cells_per_sweep = len(config.node_counts) * config.repetitions

    with ExperimentStore(tmp_path / "store") as store:
        start = time.perf_counter()
        cold = [
            run_sweep(cfg, system="duty", rate=10, store=store) for cfg in configs
        ]
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = [
            run_sweep(cfg, system="duty", rate=10, store=store) for cfg in configs
        ]
        warm_seconds = time.perf_counter() - start
        stats = store.stats()

    for cold_sweep, warm_sweep in zip(cold, warm):
        assert warm_sweep.records == cold_sweep.records, (
            f"{cold_sweep.config.scenario}: warm records diverged from cold"
        )
        assert cold_sweep.cache_misses == cells_per_sweep
        assert warm_sweep.cache_hits == cells_per_sweep
        assert warm_sweep.cache_misses == 0

    speedup = cold_seconds / warm_seconds
    results = {
        "workload": {
            "scenarios": list(SCENARIOS),
            "node_counts": list(config.node_counts),
            "repetitions": config.repetitions,
            "cells": stats.cells,
            "records": stats.records,
            "shard_bytes": stats.shard_bytes,
            "scale": "paper" if _paper_scale() else "quick",
            "speedup_target": SPEEDUP_TARGET,
        },
        "store_cache": {
            "cold_s": cold_seconds,
            "warm_s": warm_seconds,
            "speedup": speedup,
        },
    }
    write_results("BENCH_store", results)

    emit(
        f"Experiment-store cache ({len(SCENARIOS)} scenarios x "
        f"{cells_per_sweep} cells)",
        f"cold: {cold_seconds:8.3f} s\n"
        f"warm: {warm_seconds:8.3f} s\n"
        f"speedup: {speedup:.1f}x  (target >= {SPEEDUP_TARGET}x)",
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"warm sweep only {speedup:.1f}x faster than cold; "
        f"expected >= {SPEEDUP_TARGET}x"
    )
