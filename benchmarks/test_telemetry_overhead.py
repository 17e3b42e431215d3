"""Telemetry overhead gate: an instrumented sweep stays within 5% of bare.

The zero-cost-when-off contract (docs/telemetry.md) has two measurable
halves:

* **off** — with no sink attached, the ``if EVENT_BUS.active`` guards keep
  instrumented hot paths at one attribute load + branch per site, so a
  bare sweep after the telemetry spine landed must cost what it cost
  before it;
* **on** — with a ring sink attached, events are constructed and buffered
  at sweep/cell/store granularity (never per slot), so even a fully
  observed sweep must stay within ``OVERHEAD_BUDGET`` of the bare one.

Both sides are timed interleaved (:func:`_bench_utils.time_pair`) so
machine-load drift cannot masquerade as overhead.  Results are written as
``BENCH_telemetry.json`` in the benchmark results directory
(``$REPRO_BENCH_DIR``, default ``bench-results``) for the CI artifact.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import sweep_from_env
from repro.experiments.runner import run_sweep
from repro.obs.bus import EVENT_BUS
from repro.obs.sinks import RingBufferSink

from _bench_utils import emit, paper_scale as _paper_scale, time_pair, write_results

#: Instrumented / bare wall-time ratio each workload must stay under.
OVERHEAD_BUDGET = 1.05


def _sweep_config():
    config = sweep_from_env()
    if not _paper_scale():
        # One 50-node cell keeps a single timed call around 100 ms: long
        # enough that a 5% regression is far above timer noise, short
        # enough for the interleaved rounds to fit the CI budget.
        config = dataclasses.replace(config, node_counts=(50,), repetitions=1)
    return config


@pytest.mark.ablation
def test_telemetry_overhead_within_budget(tmp_path):
    """Ring-sink-instrumented runs stay within 5% of bare runs."""
    config = _sweep_config()
    ring = RingBufferSink()

    def bare_sweep():
        run_sweep(config, system="duty", rate=10)

    def observed_sweep():
        with EVENT_BUS.attached(ring):
            run_sweep(config, system="duty", rate=10)

    bare_s, observed_s = time_pair(bare_sweep, observed_sweep, min_reps=2, budget_s=20.0)
    sweep_ratio = observed_s / bare_s
    assert ring.total > 0, "the observed side emitted nothing — vacuous measurement"

    cells = len(config.node_counts) * config.repetitions
    results = {
        "workload": {
            "node_counts": list(config.node_counts),
            "repetitions": config.repetitions,
            "cells": cells,
            "scale": "paper" if _paper_scale() else "quick",
            "overhead_budget": OVERHEAD_BUDGET,
        },
        "sweep": {
            "bare_s": bare_s,
            "observed_s": observed_s,
            "ratio": sweep_ratio,
            "bare_cells_per_s": cells / bare_s,
            "observed_cells_per_s": cells / observed_s,
        },
    }
    write_results("BENCH_telemetry", results)

    emit(
        "Telemetry overhead (ring sink attached vs bare)",
        f"sweep:  bare {bare_s * 1e3:8.1f} ms | observed {observed_s * 1e3:8.1f} ms "
        f"| ratio {sweep_ratio:.3f}\n"
        f"budget: <= {OVERHEAD_BUDGET:.2f}",
    )
    assert sweep_ratio <= OVERHEAD_BUDGET, (
        f"instrumented sweep is {(sweep_ratio - 1) * 100:.1f}% slower than bare; "
        f"budget is {(OVERHEAD_BUDGET - 1) * 100:.0f}%"
    )
