"""Fast self-check of the benchmark, on a one-cell slice of each workload.

Run with ``python -m pytest perfbench -q`` from the repository root.  It
checks that the traced mirror rebuilds exactly the records of
``run_sweep``, that the record checks pass and catch broken records, that
the work counts repeat, that the speed gauge takes its probes out of what it
scales, and that the metric names agree with ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
from pathlib import Path

import pytest

from gauge import UNGAUGED, Reading, SpeedGauge
from repro.experiments.runner import run_sweep
from sample import line_up, record_failures, run_traced, run_untraced, sweep_config
from workloads import END_TO_END, PER_LAYER, TIME_LAYERS, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
SLICE = (100,)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_mirror_rebuilds_the_records_of_run_sweep(name, tmp_path):
    workload = WORKLOADS[name]
    plain = run_untraced(workload, 2012, str(tmp_path), node_counts=SLICE)
    traced = run_traced(workload, 2012, str(tmp_path), node_counts=SLICE)
    again = run_traced(workload, 2012, str(tmp_path), node_counts=SLICE)

    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["broadcasts"] == traced["broadcasts"] == len(workload.line_up)
    assert traced["digest"] == plain["digest"]
    assert set(traced["layers"]) == {*TIME_LAYERS, "experiments.unattributed_s"}
    assert traced["counts"] == again["counts"]
    assert traced["counts"]["sim.advances"] > 0
    assert traced["counts"]["store.puts"] == (1 if workload.store else 0)
    assert list(tmp_path.iterdir()) == []


def test_record_checks_catch_broken_records():
    workload = WORKLOADS["paper-sync"]
    config = sweep_config(workload, 2012, SLICE)
    records = run_sweep(
        config, system=workload.system, policies=line_up(workload, config)
    ).records
    assert record_failures(workload, records, len(records)) == []

    too_fast = [dataclasses.replace(r, latency=r.eccentricity - 1) for r in records]
    too_slow = [
        dataclasses.replace(r, latency=100 * r.latency)
        for r in records
        if r.policy in ("OPT", "G-OPT", workload.baseline)
    ]
    assert len(record_failures(workload, too_fast, len(records))) == len(records)
    assert len(record_failures(workload, too_slow, len(too_slow))) == 3
    assert len(record_failures(workload, records[:-1], len(records))) == 1


def test_gauge_takes_its_probes_out_of_what_it_scales():
    assert Reading(probe_s=0.5, speed=0.5, probes=10).scale(10.5) == 5.0
    assert UNGAUGED.scale(2.0) == 2.0

    before = signal.getsignal(signal.SIGALRM)
    gauge = SpeedGauge()
    gauge.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        reading = gauge.take()
    finally:
        gauge.stop()
    assert reading.probes >= 3
    assert 0 < reading.probe_s < 0.3 and reading.speed > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
