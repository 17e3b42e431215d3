"""The metrics registry: counters, gauges and histograms over the event bus.

Two halves:

* :class:`MetricsRegistry` — a named collection of :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments with a JSON-safe
  ``snapshot()``.  This is what ``fabric serve --telemetry`` serves at
  ``/metrics`` and what the live monitor renders.
* :class:`MetricsSink` — an event sink (attachable to the
  :data:`~repro.obs.bus.EVENT_BUS`) folding the event taxonomy into a
  registry: sweep throughput (cells/s), store cache hit rate, lease retry
  counts, worker liveness.

Instrument mutations take the registry lock — metrics update at cell /
lease granularity (tens per second), never per slot, so contention
is irrelevant and correctness under fleet threads is free.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.obs import events as _events
from repro.obs.events import Event
from repro.obs.sinks import EventSink

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets for per-cell wall times (seconds).
DEFAULT_LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class Counter:
    """A monotonically increasing number (events, seconds, records)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (queue depth, hit rate, oldest lease age)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A fixed-bucket distribution (cumulative counts, like Prometheus).

    ``observe(v)`` increments every bucket whose upper bound is >= ``v``
    plus the implicit ``+Inf`` bucket; ``snapshot`` reports bounds, counts,
    total count and sum.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "_lock")

    def __init__(
        self, name: str, bounds: Sequence[float], lock: threading.Lock
    ) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError(f"histogram {name!r} needs sorted, non-empty bounds")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[position] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named instrument collection with a JSON-safe snapshot.

    Instruments are created on first access (``counter``/``gauge``/
    ``histogram`` are get-or-create) and share one lock — mutation rates
    are per-cell/per-lease, so a single lock is simpler than per-instrument
    ones and just as fast in practice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._require_free(name)
                instrument = self._counters[name] = Counter(name, self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._require_free(name)
                instrument = self._gauges[name] = Gauge(name, self._lock)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._require_free(name)
                instrument = self._histograms[name] = Histogram(
                    name, bounds, self._lock
                )
        return instrument

    def _require_free(self, name: str) -> None:
        # Caller holds the lock; a name can carry only one instrument type.
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if name in table:
                raise ValueError(f"metric {name!r} already registered as a {kind}")

    def snapshot(self) -> dict:
        """Every instrument's current value as one JSON-safe object."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "bounds": list(histogram.bounds),
                        "bucket_counts": list(histogram.bucket_counts),
                        "count": histogram.count,
                        "sum": histogram.total,
                    }
                    for name, histogram in sorted(self._histograms.items())
                },
            }


class MetricsSink(EventSink):
    """Fold the event stream into a :class:`MetricsRegistry`.

    Derived metrics maintained on the fly:

    * ``sweep.cells_per_s`` — finished cells over the wall time since the
      first :class:`~repro.obs.events.SweepStarted` (sweep throughput);
    * ``store.hit_rate`` — hits / (hits + misses) of the store lookups seen;
    * ``fabric.lease_retries`` — expiries + explicit failures (the retry
      pressure on the queue);
    * ``worker.<name>.last_seen_ts`` — heartbeat liveness per worker.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock=time.time,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._sweep_started_at: float | None = None

    # One handler per event kind keeps the fold auditable against the
    # taxonomy table in docs/telemetry.md.
    def consume(self, event: Event) -> None:
        registry = self.registry
        registry.counter(f"events.{event.kind}").inc()
        if isinstance(event, _events.SweepStarted):
            self._sweep_started_at = self._clock()
            registry.gauge("sweep.total_cells").set(event.total_cells)
            registry.gauge("sweep.missing_cells").set(event.missing_cells)
            if event.cached_cells >= 0:
                registry.gauge("sweep.cached_cells").set(event.cached_cells)
        elif isinstance(event, _events.CellFinished):
            cells = registry.counter("sweep.cells_finished")
            cells.inc()
            registry.counter("sweep.records").inc(event.records)
            if self._sweep_started_at is not None:
                elapsed = max(self._clock() - self._sweep_started_at, 1e-9)
                registry.gauge("sweep.cells_per_s").set(cells.value / elapsed)
        elif isinstance(event, (_events.StoreHit, _events.StoreMiss)):
            key = "store.hits" if isinstance(event, _events.StoreHit) else "store.misses"
            registry.counter(key).inc()
            hits = registry.counter("store.hits").value
            misses = registry.counter("store.misses").value
            registry.gauge("store.hit_rate").set(hits / max(hits + misses, 1.0))
        elif isinstance(event, _events.StorePut):
            registry.counter("store.puts").inc()
        elif isinstance(event, _events.LeaseClaimed):
            registry.counter("fabric.lease_claims").inc()
        elif isinstance(event, (_events.LeaseExpired, _events.LeaseFailed)):
            registry.counter("fabric.lease_retries").inc()
            key = (
                "fabric.lease_expiries"
                if isinstance(event, _events.LeaseExpired)
                else "fabric.lease_failures"
            )
            registry.counter(key).inc()
        elif isinstance(event, _events.CellQuarantined):
            registry.counter("fabric.quarantined").inc()
        elif isinstance(event, _events.WorkerHeartbeat):
            registry.counter("fabric.heartbeats").inc()
            registry.gauge(f"worker.{event.worker}.last_seen_ts").set(self._clock())
