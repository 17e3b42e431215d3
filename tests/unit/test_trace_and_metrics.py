"""Unit tests for repro.sim.trace and repro.sim.metrics."""

from __future__ import annotations

import math

import pytest

from repro.core.policies import GreedyOptPolicy
from repro.sim.broadcast import run_broadcast
from repro.sim.metrics import BroadcastMetrics, aggregate_latency, improvement_percent
from repro.sim.trace import BroadcastResult


class TestBroadcastResult:
    def test_latency_definition(self, figure2):
        topo, source = figure2
        result = run_broadcast(topo, source, GreedyOptPolicy())
        assert result.latency == result.end_time - result.start_time + 1
        assert result.latency == 2

    def test_counts(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, GreedyOptPolicy())
        assert result.num_advances == 3
        assert result.total_transmissions == 4  # {s}, {1}, {0, 4}
        assert result.idle_time == 0

    def test_is_complete(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, GreedyOptPolicy())
        assert result.is_complete(topo)

    def test_transmissions_by_node(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, GreedyOptPolicy())
        counts = result.transmissions_by_node()
        assert counts[source] == 1
        assert counts[1] == 1
        assert sum(counts.values()) == result.total_transmissions

    def test_empty_trace_degenerate_latency(self):
        result = BroadcastResult(
            policy_name="noop",
            source=0,
            start_time=3,
            end_time=2,
            covered=frozenset({0}),
        )
        assert result.latency == 0
        assert result.num_advances == 0


class TestBroadcastMetrics:
    def test_from_result_on_figure1(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, GreedyOptPolicy())
        metrics = BroadcastMetrics.from_result(topo, result)
        assert metrics.latency == 3
        assert metrics.eccentricity == 3
        assert metrics.stretch == pytest.approx(1.0)
        assert metrics.max_concurrency == 2
        assert metrics.total_transmissions == 4
        assert metrics.mean_utilization > 1.0

    def test_duty_metrics_count_idle_slots(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, GreedyOptPolicy(), schedule=schedule, start_time=2
        )
        metrics = BroadcastMetrics.from_result(topo, result)
        assert metrics.idle_time == 1
        assert metrics.latency == 3


class TestHelpers:
    def test_improvement_percent(self):
        assert improvement_percent(10, 3) == pytest.approx(70.0)
        assert improvement_percent(10, 10) == 0.0
        with pytest.raises(ValueError):
            improvement_percent(0, 1)

    def test_aggregate_latency(self):
        stats = aggregate_latency([3, 5, 4])
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["min"] == 3
        assert stats["max"] == 5
        assert stats["count"] == 3

    def test_aggregate_latency_empty(self):
        stats = aggregate_latency([])
        assert math.isnan(stats["mean"])
        assert stats["count"] == 0
