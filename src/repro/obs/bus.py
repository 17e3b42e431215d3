"""The event bus: fan one event stream out to attached sinks, zero-cost off.

One process-wide bus (:data:`EVENT_BUS`) carries every telemetry event of
the instrumented layers — sweep runner, store, fabric.
The design constraint is the **zero-cost-when-off contract**: with no sink
attached, instrumented hot paths must not even *construct* events, let
alone dispatch them.  Call sites therefore guard on the plain attribute
``EVENT_BUS.active`` and import the event class inside the guard::

    if EVENT_BUS.active:
        from repro.obs.events import StoreHit

        EVENT_BUS.emit(StoreHit(digest, len(records)))

which costs one attribute load and one branch — unmeasurable against a
slot kernel, and gated below 5% end-to-end by
``benchmarks/test_telemetry_overhead.py`` — and, with the bus off, loads
no event class at all.

Attach/detach rebuild an immutable sink tuple under a lock while ``emit``
reads a snapshot, so emitting is safe from any thread (fabric coordinator
executor threads, fleet worker threads) without taking a lock.  A sink that
raises mid-emit aborts the run loudly, wrapped in :class:`TelemetrySinkError`
naming the sink and the event — telemetry never drops data silently, and a
broken sink is a bug to fix, not to paper over.

Events are observation only: no instrumented code path reads the bus, so
records stay bit-identical with any sink set attached (the property suite
``tests/property/test_telemetry_determinism.py`` pins this across engines
and fleets).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import Event
    from repro.obs.sinks import EventSink

__all__ = ["EventBus", "TelemetrySinkError", "EVENT_BUS"]


class TelemetrySinkError(RuntimeError):
    """A sink raised while consuming an event (event + sink attached).

    Carries the failing sink and event so the operator sees *which*
    telemetry consumer broke and on what, instead of a bare traceback
    pointing into the middle of a sweep.
    """

    def __init__(self, sink: object, event: "Event", error: BaseException) -> None:
        self.sink = sink
        self.event = event
        super().__init__(
            f"telemetry sink {type(sink).__name__} failed on "
            f"{event.kind!r} event {event!r}: {type(error).__name__}: {error}"
        )


class EventBus:
    """A many-sinks broadcast channel for telemetry events.

    ``active`` is a plain boolean attribute (not a property) so the hot-path
    guard is a single ``LOAD_ATTR`` — it is ``True`` exactly while at least
    one sink is attached.
    """

    def __init__(self) -> None:
        self._sinks: tuple["EventSink", ...] = ()
        self._lock = threading.Lock()
        #: Hot-path guard: true while any sink is attached.
        self.active: bool = False

    # -- sink management ---------------------------------------------------

    def attach(self, sink: "EventSink") -> "EventSink":
        """Attach a sink (returned for chaining); idempotent per instance."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks = (*self._sinks, sink)
            self.active = True
        return sink

    def detach(self, sink: "EventSink") -> None:
        """Detach a sink; unknown sinks are ignored (idempotent)."""
        with self._lock:
            self._sinks = tuple(s for s in self._sinks if s is not sink)
            self.active = bool(self._sinks)

    @property
    def sinks(self) -> tuple["EventSink", ...]:
        """The currently attached sinks (snapshot)."""
        return self._sinks

    @contextmanager
    def attached(self, *sinks: "EventSink") -> Iterator[tuple["EventSink", ...]]:
        """Attach sinks for the duration of a ``with`` block, then detach.

        The standard way to scope telemetry to one sweep::

            ring = RingBufferSink()
            with EVENT_BUS.attached(ring):
                run_sweep(config, ...)
        """
        for sink in sinks:
            self.attach(sink)
        try:
            yield sinks
        finally:
            for sink in sinks:
                self.detach(sink)

    def _reset_after_fork(self) -> None:
        """Detach everything in a freshly forked child (see module note below)."""
        self._lock = threading.Lock()
        self._sinks = ()
        self.active = False

    # -- emission ----------------------------------------------------------

    def emit(self, event: "Event") -> None:
        """Hand one event to every attached sink, in attach order.

        Callers on hot paths must guard with ``if EVENT_BUS.active`` so the
        event itself is never constructed when nobody listens; ``emit`` on
        an inactive bus is still correct (it does nothing).
        """
        for sink in self._sinks:
            try:
                sink.consume(event)
            except Exception as error:
                raise TelemetrySinkError(sink, event, error) from error


#: The process-wide bus every instrumented layer emits into.
EVENT_BUS = EventBus()

# A forked pool worker (the runner's Linux fast path) would otherwise
# inherit the parent's sinks — including open jsonl file descriptors, whose
# concurrent appends could tear the trace.  Telemetry is a parent-process
# observation for pool runs: the child starts with a quiet bus, the parent
# still sees every cell finish.  (Spawned workers re-import and get a fresh
# bus anyway.)
if hasattr(os, "register_at_fork"):  # pragma: no branch - posix in CI
    os.register_at_fork(after_in_child=EVENT_BUS._reset_after_fork)
