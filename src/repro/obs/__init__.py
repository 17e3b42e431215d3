"""``repro.obs`` — the telemetry spine: events, sinks, metrics, monitor.

Observation never participates in simulation: events are pure values, the
bus is write-only from the instrumented layers' point of view, and the
zero-cost-when-off contract (see :mod:`repro.obs.bus`) keeps uninstrumented
runs allocation-free.  Quick start::

    from repro.obs import EVENT_BUS, RingBufferSink

    ring = RingBufferSink()
    with EVENT_BUS.attached(ring):
        run_sweep(config, store=store)
    print(ring.counts())

See docs/telemetry.md for the event taxonomy and the monitor.
"""

from repro.obs.bus import EVENT_BUS, EventBus, TelemetrySinkError
from repro.obs.events import (
    EVENT_KINDS,
    CellFinished,
    CellQuarantined,
    CellStarted,
    Event,
    LeaseClaimed,
    LeaseExpired,
    LeaseFailed,
    StoreHit,
    StoreMiss,
    StorePut,
    SweepFinished,
    SweepStarted,
    WorkerHeartbeat,
    event_from_json,
    event_to_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)
from repro.obs.monitor import SweepMonitor, render_metrics
from repro.obs.sinks import (
    OBS_SINKS,
    CallbackSink,
    EventSink,
    JsonlTraceSink,
    RingBufferSink,
    build_sink,
    read_trace,
    sink_names,
)

__all__ = [
    # bus
    "EVENT_BUS",
    "EventBus",
    "TelemetrySinkError",
    # events
    "Event",
    "EVENT_KINDS",
    "SweepStarted",
    "SweepFinished",
    "CellStarted",
    "CellFinished",
    "StoreHit",
    "StoreMiss",
    "StorePut",
    "LeaseClaimed",
    "LeaseExpired",
    "LeaseFailed",
    "CellQuarantined",
    "WorkerHeartbeat",
    "event_to_json",
    "event_from_json",
    # sinks
    "EventSink",
    "RingBufferSink",
    "JsonlTraceSink",
    "CallbackSink",
    "OBS_SINKS",
    "build_sink",
    "sink_names",
    "read_trace",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    # monitor
    "SweepMonitor",
    "render_metrics",
]
