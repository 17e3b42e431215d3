"""The live sweep monitor behind ``repro monitor``.

:class:`SweepMonitor` assembles one text *frame* per refresh from up to
three independent feeds — any subset works, so the same monitor watches a
local sweep, a store being filled by another process, or a whole fabric
fleet:

* a **store** (``--store``): cached cell / record counts straight from the
  sqlite index (cheap: no shard reads);
* a **jsonl trace** (``--trace``): the :class:`~repro.obs.sinks.JsonlTraceSink`
  file a live run is appending to, re-folded through
  :class:`~repro.obs.metrics.MetricsSink` on every refresh (the file is the
  transport, so the watched process needs no server);
* a **fabric coordinator** (``--url``): the ``status`` action plus, when the
  server was started with ``--telemetry``, the ``/metrics`` endpoint.

Frames are plain text (one ``render()`` string); :meth:`SweepMonitor.watch`
redraws with an ANSI home+clear prefix so a terminal shows a refreshing
dashboard while pipes and CI logs just see frames separated by blank lines.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TextIO

from repro.obs.events import event_from_json
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.sinks import read_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import ExperimentStore

__all__ = ["SweepMonitor", "render_metrics"]

#: Heartbeat age (seconds) past which a worker is flagged as stale.
STALE_WORKER_S = 15.0

_CLEAR = "\x1b[H\x1b[2J"


def _fmt_rate(value: float) -> str:
    return f"{value:.1f}" if value < 100 else f"{value:.0f}"


def render_metrics(snapshot: dict, *, clock: Callable[[], float] = time.time) -> list[str]:
    """Render a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as frame lines.

    Shared by the trace panel and the fabric ``/metrics`` panel so both
    read identically; worker liveness gauges are summarised into a health
    row per worker instead of raw timestamps.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    lines: list[str] = []

    total = gauges.get("sweep.total_cells")
    finished = counters.get("sweep.cells_finished", 0)
    if total:
        width = 30
        filled = int(width * min(finished / total, 1.0))
        bar = "#" * filled + "-" * (width - filled)
        rate = gauges.get("sweep.cells_per_s", 0.0)
        lines.append(
            f"  sweep     [{bar}] {int(finished)}/{int(total)} cells"
            + (f" @ {_fmt_rate(rate)} cells/s" if rate else "")
        )
    elif finished:
        lines.append(f"  sweep     {int(finished)} cells finished")

    hits = counters.get("store.hits", 0)
    misses = counters.get("store.misses", 0)
    if hits or misses:
        rate = gauges.get("store.hit_rate", 0.0)
        lines.append(
            f"  cache     {int(hits)} hits / {int(misses)} misses "
            f"({100.0 * rate:.0f}% hit rate)"
        )

    retries = counters.get("fabric.lease_retries", 0)
    claims = counters.get("fabric.lease_claims", 0)
    quarantined = counters.get("fabric.quarantined", 0)
    if claims or retries or quarantined:
        lines.append(
            f"  leases    {int(claims)} claims, {int(retries)} retries, "
            f"{int(quarantined)} quarantined"
        )

    # Worker liveness arrives as either absolute heartbeat stamps (the
    # event-folding MetricsSink) or ready-made ages (the coordinator's
    # /metrics gauges, whose monotonic clock cannot cross the wire).
    now = clock()
    ages: dict[str, float] = {}
    for name, value in gauges.items():
        if not name.startswith("worker."):
            continue
        if name.endswith(".last_seen_ts"):
            ages[name[len("worker.") : -len(".last_seen_ts")]] = max(now - value, 0.0)
        elif name.endswith(".last_seen_age_s"):
            ages[name[len("worker.") : -len(".last_seen_age_s")]] = max(value, 0.0)
    for worker, age in sorted(ages.items()):
        health = "ok" if age <= STALE_WORKER_S else f"STALE {age:.0f}s"
        lines.append(f"  worker    {worker:<20} last heartbeat {age:5.1f}s ago  [{health}]")
    return lines


class SweepMonitor:
    """Render a refreshing dashboard from a store, a trace file and/or a fabric.

    Parameters
    ----------
    store:
        An open :class:`~repro.store.store.ExperimentStore` to summarise
        (cached cells/records), or ``None``.
    trace:
        Path of a live :class:`~repro.obs.sinks.JsonlTraceSink` file to
        re-fold each refresh, or ``None``.
    url:
        A fabric coordinator base URL to poll for ``status`` (and
        ``/metrics`` when served with ``--telemetry``), or ``None``.
    clock:
        Injectable wall clock (tests freeze it).
    """

    def __init__(
        self,
        *,
        store: "ExperimentStore | None" = None,
        trace: Path | str | None = None,
        url: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if store is None and trace is None and url is None:
            raise ValueError("monitor needs at least one of store, trace or url")
        self.store = store
        self.trace = Path(trace) if trace is not None else None
        self.url = url
        self._clock = clock

    # -- feeds -------------------------------------------------------------

    def _trace_snapshot(self) -> tuple[dict, int]:
        """Re-fold the whole trace into a fresh registry (events, count).

        A full re-read per frame is deliberate: traces are append-only and
        monitor refreshes are ~1 Hz, so re-folding keeps the monitor
        stateless across torn tails and trace truncation/rotation.
        """
        registry = MetricsRegistry()
        # Trace heartbeat ages must be measured against the *event* stamps,
        # not fold time — replaying N heartbeats at fold time would mark
        # every worker fresh.  The sink's clock is patched per event below.
        sink = MetricsSink(registry, clock=self._clock)
        seen = 0
        for payload in read_trace(self.trace):
            stamp = payload.get("ts")
            if stamp is not None:
                sink._clock = lambda s=stamp: s
            sink.consume(event_from_json(payload))
            seen += 1
        sink._clock = self._clock
        return registry.snapshot(), seen

    def _fabric_snapshot(self) -> tuple[dict | None, dict | None, str | None]:
        """(status, metrics, error) from the coordinator, tolerating absence.

        A down coordinator or a server without ``--telemetry`` must not
        kill the monitor — the frame reports the error line instead.
        """
        from repro.fabric.transport import HttpTransport, TransportError

        transport = HttpTransport(self.url)
        try:
            try:
                status = transport.request("status", {})
            except TransportError as error:
                return None, None, str(error)
            try:
                metrics = transport.request("metrics", {})
            except TransportError:
                metrics = None  # serve ran without --telemetry
            return status, metrics, None
        finally:
            transport.close()

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """One dashboard frame as plain text."""
        lines = [f"repro monitor · {time.strftime('%H:%M:%S', time.localtime(self._clock()))}"]

        if self.store is not None:
            stats = self.store.stats()
            lines.append(f"store · {self.store.root}")
            lines.append(
                f"  cached    {stats.cells} cells / {stats.records} records "
                f"({stats.shard_bytes / 1024:.1f} KiB in shards)"
            )

        if self.trace is not None:
            snapshot, seen = self._trace_snapshot()
            lines.append(f"trace · {self.trace}")
            if seen:
                lines.extend(
                    render_metrics(snapshot, clock=self._clock)
                    or ["  (no renderable metrics yet)"]
                )
            else:
                lines.append("  (no events yet)")

        if self.url is not None:
            status, metrics, error = self._fabric_snapshot()
            lines.append(f"fabric · {self.url}")
            if error is not None:
                lines.append(f"  unreachable: {error}")
            elif status is not None:
                counts = status["counts"]
                lines.append(
                    f"  cells     {counts['completed']}/{status['total']} done "
                    f"(pending {counts['pending']}, leased {counts['leased']}, "
                    f"quarantined {counts['quarantined']})"
                )
                depth = status.get("queue_depth")
                if depth is not None:
                    oldest = status.get("oldest_lease_age_s")
                    oldest_text = (
                        f", oldest lease {oldest:.1f}s" if oldest is not None else ""
                    )
                    lines.append(f"  queue     depth {depth}{oldest_text}")
                attempts = status.get("attempts") or {}
                retried = {cell: n for cell, n in attempts.items() if n > 1}
                if retried:
                    worst = sorted(
                        retried.items(), key=lambda item: (-item[1], int(item[0]))
                    )[:5]
                    rendered = ", ".join(f"cell {cell}×{n}" for cell, n in worst)
                    lines.append(f"  retries   {rendered}")
                for worker, stats in sorted(status.get("workers", {}).items()):
                    done = int(stats.get("completed", 0))
                    failures = int(stats.get("failures", 0))
                    age = stats.get("last_seen_age_s")
                    if age is None:
                        health = "seen"
                        seen_text = ""
                    else:
                        health = "ok" if age <= STALE_WORKER_S else f"STALE {age:.0f}s"
                        seen_text = f" last seen {age:5.1f}s ago "
                    lines.append(
                        f"  worker    {worker:<20} {done} done, "
                        f"{failures} failed{seen_text} [{health}]"
                    )
                if metrics is not None:
                    lines.extend(render_metrics(metrics, clock=self._clock))
        return "\n".join(lines)

    def watch(
        self,
        *,
        interval: float = 1.0,
        frames: int | None = None,
        out: TextIO | None = None,
    ) -> int:
        """Redraw until interrupted (or for ``frames`` refreshes); returns 0.

        On a TTY each frame is preceded by an ANSI home+clear so the view
        refreshes in place; elsewhere frames separate with a blank line so
        logs stay readable.
        """
        out = out if out is not None else sys.stdout
        tty = getattr(out, "isatty", lambda: False)()
        drawn = 0
        try:
            while frames is None or drawn < frames:
                frame = self.render()
                if tty:
                    out.write(_CLEAR + frame + "\n")
                else:
                    out.write(frame + "\n\n")
                out.flush()
                drawn += 1
                if frames is not None and drawn >= frames:
                    break
                time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0
