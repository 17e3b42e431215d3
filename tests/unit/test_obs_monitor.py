"""The live sweep monitor: frame rendering from store, trace and fabric feeds."""

from __future__ import annotations

import io

import pytest

from repro.obs import events
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.monitor import STALE_WORKER_S, SweepMonitor, render_metrics
from repro.obs.sinks import JsonlTraceSink


def _folded(*folded: events.Event, clock=lambda: 100.0) -> dict:
    sink = MetricsSink(MetricsRegistry(), clock=clock)
    for event in folded:
        sink.consume(event)
    return sink.registry.snapshot()


class TestRenderMetrics:
    def test_sweep_progress_bar(self):
        snapshot = _folded(
            events.SweepStarted("duty", 10, "vectorized", 4, 0, 4),
            events.CellFinished(0, 50, 0, 4),
            events.CellFinished(1, 50, 1, 4),
        )
        [line] = [l for l in render_metrics(snapshot) if "sweep" in l]
        assert "2/4 cells" in line
        assert "[###############---------------]" in line  # half of width 30

    def test_cache_line_shows_hit_rate(self):
        snapshot = _folded(
            events.StoreHit("00" * 32, 4),
            events.StoreMiss("11" * 32),
        )
        [line] = [l for l in render_metrics(snapshot) if "cache" in l]
        assert "1 hits / 1 misses (50% hit rate)" in line

    def test_lease_line(self):
        snapshot = _folded(
            events.LeaseClaimed(0, "w1", "lease-1"),
            events.LeaseExpired(0, "w1", 1),
            events.CellQuarantined(0, "gone", 5),
        )
        [line] = [l for l in render_metrics(snapshot) if "leases" in l]
        assert "1 claims, 1 retries, 1 quarantined" in line

    def test_worker_health_from_heartbeat_stamps(self):
        snapshot = _folded(
            events.WorkerHeartbeat("fresh", "lease-1", True),
            clock=lambda: 100.0,
        )
        snapshot["gauges"]["worker.old.last_seen_ts"] = 100.0 - STALE_WORKER_S - 10.0
        lines = render_metrics(snapshot, clock=lambda: 100.0)
        fresh = next(l for l in lines if "fresh" in l)
        old = next(l for l in lines if "old" in l)
        assert "[ok]" in fresh
        assert "STALE 25s" in old

    def test_worker_health_from_ready_made_ages(self):
        # The coordinator's /metrics ships ages, not stamps (monotonic clock
        # cannot cross the wire) — both gauge spellings must render.
        snapshot = {"counters": {}, "gauges": {"worker.w1.last_seen_age_s": 2.0}}
        [line] = render_metrics(snapshot, clock=lambda: 100.0)
        assert "w1" in line and "2.0s ago" in line and "[ok]" in line

    def test_empty_snapshot_renders_nothing(self):
        assert render_metrics({"counters": {}, "gauges": {}}) == []


class TestSweepMonitor:
    def test_requires_at_least_one_feed(self):
        with pytest.raises(ValueError, match="at least one of"):
            SweepMonitor()

    def test_store_panel(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.config import QUICK_SWEEP
        from repro.experiments.runner import run_sweep
        from repro.store import ExperimentStore

        config = replace(QUICK_SWEEP, node_counts=(50,), repetitions=1)
        with ExperimentStore(tmp_path / "store") as store:
            result = run_sweep(config, system="sync", store=store)
            frame = SweepMonitor(store=store, clock=lambda: 100.0).render()
        assert "store ·" in frame
        assert f"1 cells / {len(result.records)} records" in frame

    def test_trace_panel_folds_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(events.SweepStarted("duty", 10, "reference", 2, 0, 2))
            sink.consume(events.CellFinished(0, 50, 0, 4))
        frame = SweepMonitor(trace=path).render()
        assert f"trace · {path}" in frame
        assert "1/2 cells" in frame

    def test_trace_panel_tolerates_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.touch()
        assert "(no events yet)" in SweepMonitor(trace=path).render()

    def test_trace_heartbeat_ages_use_event_stamps(self, tmp_path):
        # Replaying a heartbeat written 60s ago must read as a 60s-old
        # worker, not a fresh one stamped at fold time.
        import json

        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(events.WorkerHeartbeat("w1", "lease-1", True))
        # Rewrite the stamp to 60s before the monitor's frozen clock.
        payload = json.loads(path.read_text())
        payload["ts"] = 940.0
        path.write_text(json.dumps(payload) + "\n")
        frame = SweepMonitor(trace=path, clock=lambda: 1000.0).render()
        assert "STALE 60s" in frame

    def test_fabric_panel_renders_status_and_metrics(self, monkeypatch):
        monitor = SweepMonitor(url="http://127.0.0.1:1", clock=lambda: 100.0)
        status = {
            "total": 8,
            "counts": {"completed": 5, "pending": 1, "leased": 1, "quarantined": 1},
            "queue_depth": 1,
            "oldest_lease_age_s": 4.5,
            "attempts": {"3": 4, "5": 2, "6": 1},
            "workers": {
                "w1": {"completed": 5, "failures": 0, "last_seen_age_s": 1.0},
                "w2": {"completed": 0, "failures": 4},
            },
        }
        metrics = {"counters": {"fabric.heartbeats": 12.0}, "gauges": {}}
        monkeypatch.setattr(
            monitor, "_fabric_snapshot", lambda: (status, metrics, None)
        )
        frame = monitor.render()
        assert "cells     5/8 done" in frame
        assert "queue     depth 1, oldest lease 4.5s" in frame
        assert "retries   cell 3×4, cell 5×2" in frame  # attempts > 1 only
        assert "cell 6" not in frame
        assert "w1" in frame and "[ok]" in frame
        assert "w2" in frame and "[seen]" in frame

    def test_fabric_panel_reports_unreachable_coordinator(self, monkeypatch):
        monitor = SweepMonitor(url="http://127.0.0.1:1")
        monkeypatch.setattr(
            monitor, "_fabric_snapshot", lambda: (None, None, "connection refused")
        )
        assert "unreachable: connection refused" in monitor.render()

    def test_fabric_panel_without_telemetry_omits_metrics(self, monkeypatch):
        monitor = SweepMonitor(url="http://127.0.0.1:1")
        status = {
            "total": 1,
            "counts": {"completed": 1, "pending": 0, "leased": 0, "quarantined": 0},
            "workers": {},
        }
        monkeypatch.setattr(monitor, "_fabric_snapshot", lambda: (status, None, None))
        frame = monitor.render()
        assert "cells     1/1 done" in frame

    def test_fabric_snapshot_against_a_live_server(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.config import QUICK_SWEEP
        from repro.experiments.runner import sweep_cells
        from repro.fabric import FabricCoordinator, FabricHTTPServer
        from repro.store import ExperimentStore

        cells = sweep_cells(
            replace(QUICK_SWEEP, node_counts=(50,), repetitions=1), system="sync"
        )
        with ExperimentStore(tmp_path / "store") as store:
            coordinator = FabricCoordinator(cells, store=store)
            with FabricHTTPServer(coordinator, expose_metrics=True) as server:
                monitor = SweepMonitor(url=server.url)
                status, metrics, error = monitor._fabric_snapshot()
        assert error is None
        assert status["counts"]["pending"] == 1
        assert "counters" in metrics

    def test_watch_writes_frames_to_non_tty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(events.CellFinished(0, 50, 0, 4))
        out = io.StringIO()
        code = SweepMonitor(trace=path).watch(interval=0.0, frames=2, out=out)
        assert code == 0
        frames = out.getvalue().strip().split("\n\n")
        assert len(frames) == 2
        assert all("trace ·" in frame for frame in frames)
        assert "\x1b" not in out.getvalue()  # no ANSI clear off-TTY
