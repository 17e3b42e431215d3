"""``repro.obs`` — the telemetry spine: events, sinks, metrics, monitor.

Observation never participates in simulation: events are pure values, the
bus is write-only from the instrumented layers' point of view, and the
zero-cost-when-off contract (see :mod:`repro.obs.bus`) keeps uninstrumented
runs allocation-free and keeps them from loading the event classes.
Quick start::

    from repro.obs import EVENT_BUS, RingBufferSink

    ring = RingBufferSink()
    with EVENT_BUS.attached(ring):
        run_sweep(config, store=store)
    print(ring.counts())

See docs/telemetry.md for the event taxonomy and the monitor.
"""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.obs.bus": ("EVENT_BUS", "EventBus", "TelemetrySinkError"),
        "repro.obs.events": (
            "EVENT_KINDS",
            "CellFinished",
            "CellQuarantined",
            "CellStarted",
            "Event",
            "LeaseClaimed",
            "LeaseExpired",
            "LeaseFailed",
            "StoreHit",
            "StoreMiss",
            "StorePut",
            "SweepFinished",
            "SweepStarted",
            "WorkerHeartbeat",
            "event_from_json",
            "event_to_json",
        ),
        "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsSink"),
        "repro.obs.monitor": ("SweepMonitor", "render_metrics"),
        "repro.obs.sinks": (
            "OBS_SINKS",
            "CallbackSink",
            "EventSink",
            "JsonlTraceSink",
            "RingBufferSink",
            "build_sink",
            "read_trace",
            "sink_names",
        ),
    },
)
