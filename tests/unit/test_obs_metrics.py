"""The metrics registry and the event-folding MetricsSink."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import events
from repro.obs.bus import EVENT_BUS
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = MetricsRegistry().counter("cells")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_holds_the_latest_value(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2

    def test_histogram_buckets_are_cumulative(self):
        histogram = MetricsRegistry().histogram("latency", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 3]  # +Inf is implicit: count=4
        assert histogram.count == 4
        assert histogram.total == pytest.approx(55.55)
        assert histogram.mean == pytest.approx(55.55 / 4)

    def test_histogram_rejects_unsorted_or_empty_bounds(self):
        lock = threading.Lock()
        with pytest.raises(ValueError, match="sorted"):
            Histogram("bad", (1.0, 0.5), lock)
        with pytest.raises(ValueError, match="sorted"):
            Histogram("bad", (), lock)


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_a_name_carries_one_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("fabric.lease_retries")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("fabric.lease_retries")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("fabric.lease_retries")

    def test_snapshot_is_json_safe_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(3)
        registry.counter("a").inc()
        registry.gauge("depth").set(7)
        registry.histogram("wall_s").observe(0.02)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["counters"]["z"] == 3
        assert snapshot["gauges"] == {"depth": 7}
        histogram = snapshot["histograms"]["wall_s"]
        assert histogram["bounds"] == list(DEFAULT_LATENCY_BUCKETS)
        assert histogram["count"] == 1 and histogram["sum"] == 0.02
        assert histogram["bucket_counts"][1] == 1  # 0.02 <= 0.05


class TestMetricsSink:
    def _fold(self, sink: MetricsSink, *folded: events.Event) -> dict:
        for event in folded:
            sink.consume(event)
        return sink.registry.snapshot()

    def test_sweep_throughput_uses_the_injected_clock(self):
        now = [100.0]
        sink = MetricsSink(clock=lambda: now[0])
        sink.consume(events.SweepStarted("duty", 10, "vectorized", 4, 1, 3))
        now[0] = 102.0
        sink.consume(events.CellFinished(0, 50, 0, 4))
        sink.consume(events.CellFinished(1, 50, 1, 4))
        snapshot = sink.registry.snapshot()
        assert snapshot["gauges"]["sweep.total_cells"] == 4
        assert snapshot["gauges"]["sweep.cached_cells"] == 1
        assert snapshot["gauges"]["sweep.missing_cells"] == 3
        assert snapshot["counters"]["sweep.cells_finished"] == 2
        assert snapshot["counters"]["sweep.records"] == 8
        assert snapshot["gauges"]["sweep.cells_per_s"] == pytest.approx(1.0)

    def test_storeless_sweep_records_no_cached_gauge(self):
        snapshot = self._fold(
            MetricsSink(), events.SweepStarted("duty", 10, "reference", 2, -1, 2)
        )
        assert "sweep.cached_cells" not in snapshot["gauges"]

    def test_cache_hit_rate(self):
        digest = "00" * 32
        snapshot = self._fold(
            MetricsSink(),
            events.StoreHit(digest, 4),
            events.StoreHit(digest, 4),
            events.StoreMiss(digest),
            events.StorePut(digest, 4),
        )
        assert snapshot["counters"]["store.hits"] == 2
        assert snapshot["counters"]["store.misses"] == 1
        assert snapshot["counters"]["store.puts"] == 1
        assert snapshot["gauges"]["store.hit_rate"] == pytest.approx(2 / 3)

    def test_lease_retry_pressure(self):
        snapshot = self._fold(
            MetricsSink(),
            events.LeaseClaimed(0, "w1", "lease-1"),
            events.LeaseExpired(0, "w1", 1),
            events.LeaseFailed(0, "w2", "bad digest", 2),
            events.CellQuarantined(0, "bad digest — attempt 5/5", 5),
        )
        assert snapshot["counters"]["fabric.lease_claims"] == 1
        assert snapshot["counters"]["fabric.lease_retries"] == 2
        assert snapshot["counters"]["fabric.lease_expiries"] == 1
        assert snapshot["counters"]["fabric.lease_failures"] == 1
        assert snapshot["counters"]["fabric.quarantined"] == 1

    def test_worker_liveness_gauges(self):
        now = [50.0]
        sink = MetricsSink(clock=lambda: now[0])
        sink.consume(events.WorkerHeartbeat("w1", "lease-1", True))
        now[0] = 60.0
        sink.consume(events.WorkerHeartbeat("w2", "lease-2", True))
        gauges = sink.registry.snapshot()["gauges"]
        assert gauges["worker.w1.last_seen_ts"] == 50.0
        assert gauges["worker.w2.last_seen_ts"] == 60.0

    def test_every_kind_lands_in_an_events_counter(self):
        sink = MetricsSink()
        sink.consume(events.StoreMiss("00" * 32))
        sink.consume(events.CellStarted("sync", 1, 50, 0))
        counters = sink.registry.snapshot()["counters"]
        assert counters["events.store_miss"] == 1
        assert counters["events.cell_started"] == 1

    def test_folds_a_real_sweep_from_the_bus(self):
        from dataclasses import replace

        from repro.experiments.config import QUICK_SWEEP
        from repro.experiments.runner import run_sweep

        config = replace(QUICK_SWEEP, node_counts=(50,), repetitions=1)
        sink = MetricsSink()
        with EVENT_BUS.attached(sink):
            result = run_sweep(config, system="sync")
        snapshot = sink.registry.snapshot()
        assert snapshot["counters"]["sweep.cells_finished"] == 1
        assert snapshot["counters"]["sweep.records"] == len(result.records)
        assert snapshot["counters"]["events.sweep_started"] == 1
        assert snapshot["counters"]["events.sweep_finished"] == 1
        assert snapshot["gauges"]["sweep.cells_per_s"] > 0
