"""Pluggable event sinks behind the ``OBS_SINKS`` registry.

Three built-ins cover the observation modes the monitor and the test
harness need:

``ring``
    :class:`RingBufferSink` — a bounded in-memory buffer of
    ``(arrival time, event)`` pairs; the live monitor's in-process feed and
    the cheapest way to capture a run's event stream in tests.
``jsonl``
    :class:`JsonlTraceSink` — an append-only, line-buffered JSONL trace
    file (one ``{"event": kind, "ts": ..., **fields}`` object per line).
    Tail-able while the run is live, which is how ``repro monitor --trace``
    follows a sweep from another process; :func:`read_trace` parses one
    back.
``callback``
    :class:`CallbackSink` — adapt any ``event -> None`` callable into a
    sink; the CLI's ``sweep`` target prints its store hit/miss line through
    one of these.

Sinks stamp arrival times themselves (``time.time()`` at consumption):
events are pure values without clocks (see :mod:`repro.obs.events`), so
timestamping is an observation concern, not a simulation one.

The registry mirrors the repo's other catalogs (``ENGINE_BACKENDS``,
``LINK_MODELS``, ``STORE_BACKENDS``): ``build_sink(name, **kwargs)``
instantiates by name, ``sink_names()`` lists the catalog for CLIs and docs.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Iterator

from repro.obs.events import Event, event_to_json

__all__ = [
    "EventSink",
    "RingBufferSink",
    "JsonlTraceSink",
    "CallbackSink",
    "OBS_SINKS",
    "build_sink",
    "sink_names",
    "read_trace",
]


class EventSink:
    """Base class of every event sink (consume one event, optionally close)."""

    def consume(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (default: nothing to release)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RingBufferSink(EventSink):
    """Keep the last ``capacity`` events in memory with arrival timestamps.

    ``deque(maxlen=...)`` appends are atomic under the GIL, so the ring is
    safe to feed from many threads (fleet workers, coordinator executors)
    without a lock on the hot path.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[tuple[float, Event]] = deque(maxlen=capacity)
        #: Total events ever consumed (survives ring eviction).
        self.total = 0

    def consume(self, event: Event) -> None:
        self.total += 1
        self._buffer.append((time.time(), event))

    def events(self) -> list[Event]:
        """The buffered events, oldest first (timestamps stripped)."""
        return [event for _, event in list(self._buffer)]

    def timestamped(self) -> list[tuple[float, Event]]:
        """The buffered ``(arrival time, event)`` pairs, oldest first."""
        return list(self._buffer)

    def counts(self) -> dict[str, int]:
        """Buffered event count per kind (the monitor's taxonomy row)."""
        return dict(Counter(event.kind for _, event in list(self._buffer)))

    def clear(self) -> None:
        """Drop the buffered events (``total`` keeps counting)."""
        self._buffer.clear()


class JsonlTraceSink(EventSink):
    """Append every event as one JSON line to ``path`` (created on demand).

    The file is opened line-buffered and each write is a single complete
    line under a lock, so a concurrent tail (the monitor, a CI artifact
    grab) always sees whole records.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8", buffering=1)
        self._lock = threading.Lock()
        self.written = 0

    def consume(self, event: Event) -> None:
        payload = event_to_json(event)
        payload["ts"] = round(time.time(), 6)
        line = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class CallbackSink(EventSink):
    """Adapt a plain ``event -> None`` callable into a sink."""

    def __init__(self, callback: Callable[[Event], None]) -> None:
        self.callback = callback

    def consume(self, event: Event) -> None:
        self.callback(event)


def read_trace(path: Path | str) -> Iterator[dict]:
    """Parse a :class:`JsonlTraceSink` file into event dicts, in order.

    Yields the raw JSON objects (``event`` kind, ``ts`` stamp, fields) so
    monitors can fold without reconstructing dataclasses; a trailing
    partial line (a writer mid-append) is skipped, not an error.
    """
    path = Path(path)
    if not path.is_file():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                return  # torn tail: the writer is mid-line


#: Sink registry: name -> class (instantiate via :func:`build_sink`).
OBS_SINKS: dict[str, type[EventSink]] = {
    "ring": RingBufferSink,
    "jsonl": JsonlTraceSink,
    "callback": CallbackSink,
}


def build_sink(name: str, **kwargs: object) -> EventSink:
    """Instantiate a registered sink by name (``jsonl`` needs ``path=``)."""
    try:
        cls = OBS_SINKS[name]
    except KeyError:
        raise ValueError(
            f"unknown sink {name!r}; registered sinks: {sink_names()}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]


def sink_names() -> list[str]:
    """The registered sink names, sorted (CLI/docs catalog order)."""
    return sorted(OBS_SINKS)
