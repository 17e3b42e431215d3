"""``BENCH_trajectory.json`` speaks the benchmark's language.

The trajectory file records, change by change, the benchmark medians of
the parent commit and of the change.  Every workload and metric it names
must be one that ``BENCHMARK.json`` declares (read here, never written),
and its entries must stay in the order the changes landed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def entries() -> list[dict]:
    trajectory = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    assert trajectory["entries"], "the trajectory holds no entry"
    return trajectory["entries"]


def _pairs(table: dict) -> list[object]:
    return [pair for by_workload in table.values() for pair in by_workload.values()]


def test_entries_are_in_landing_order(entries):
    numbers = [entry["pr"] for entry in entries]
    assert all(isinstance(number, int) for number in numbers)
    assert numbers == sorted(set(numbers))


def test_names_are_declared_by_the_benchmark(declared, entries):
    workloads = {workload["name"] for workload in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    for entry in entries:
        claim = entry.get("claim")
        if claim is not None:
            assert claim["metric"] in metrics
            assert set(claim["workloads"]) <= workloads
        tables = [entry.get("median", {}), entry.get("traced", {})]
        tables.append(entry.get("held_out", {}).get("median", {}))
        for table in tables:
            for metric, by_workload in table.items():
                assert metric in metrics, (entry["pr"], metric)
                assert set(by_workload) <= workloads, (entry["pr"], metric)
        for metric in entry.get("range_all_workloads", {}):
            assert metric in metrics, (entry["pr"], metric)


def test_values_are_number_pairs(entries):
    for entry in entries:
        pairs = _pairs(entry.get("median", {})) + _pairs(entry.get("traced", {}))
        pairs += _pairs(entry.get("held_out", {}).get("median", {}))
        pairs += list(entry.get("range_all_workloads", {}).values())
        assert pairs, entry["pr"]
        for pair in pairs:
            assert isinstance(pair, list) and len(pair) == 2, (entry["pr"], pair)
            assert all(isinstance(v, (int, float)) and v >= 0 for v in pair)
