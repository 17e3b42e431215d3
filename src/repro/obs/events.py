"""The telemetry event taxonomy: one frozen dataclass per observable fact.

Every event is a plain value — hashable, comparable, JSON-flattenable via
:func:`event_to_json` — with a class-level ``kind`` string that names it in
traces and monitor views.  Events deliberately carry **no timestamps and no
RNG state**: an event is what happened, not when the wall clock saw it
(sinks that care about arrival time stamp events themselves, see
:mod:`repro.obs.sinks`), and emitting one can therefore never perturb a
sweep's deterministic record stream.

The zero-cost contract (see :mod:`repro.obs.bus`) means event *construction*
is guarded at every hot call site, and so is the import of this module::

    if EVENT_BUS.active:
        from repro.obs.events import StoreHit

        EVENT_BUS.emit(StoreHit(...))

so a run with no sink attached never allocates an event, nor loads this
module — the unit suite pins this by swapping the event classes for
raisers and by sweeping in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "Event",
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
    "EVENT_KINDS",
    "event_to_json",
    "event_from_json",
]


@dataclass(frozen=True)
class Event:
    """Base class of every telemetry event (never emitted itself)."""

    kind: ClassVar[str] = "event"


# -- sweep runner ----------------------------------------------------------


@dataclass(frozen=True)
class SweepStarted(Event):
    """``run_sweep`` partitioned its grid and is about to dispatch.

    ``cached_cells``/``missing_cells`` describe the store partition;
    ``cached_cells`` is ``-1`` for store-less sweeps (nothing was
    consulted, so "0 cached" would be misleading).
    """

    kind: ClassVar[str] = "sweep_started"
    system: str
    rate: int
    engine: str
    total_cells: int
    cached_cells: int
    missing_cells: int


@dataclass(frozen=True)
class SweepFinished(Event):
    """``run_sweep`` reassembled every record."""

    kind: ClassVar[str] = "sweep_finished"
    records: int
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class CellStarted(Event):
    """One grid cell's simulation began (in whichever process runs it)."""

    kind: ClassVar[str] = "cell_started"
    system: str
    rate: int
    num_nodes: int
    repetition: int


@dataclass(frozen=True)
class CellFinished(Event):
    """One grid cell's records arrived back at the runner (serial index)."""

    kind: ClassVar[str] = "cell_finished"
    index: int
    num_nodes: int
    repetition: int
    records: int


# -- experiment store ------------------------------------------------------


@dataclass(frozen=True)
class StoreHit(Event):
    """``ExperimentStore.get`` served a cached cell."""

    kind: ClassVar[str] = "store_hit"
    digest: str
    records: int


@dataclass(frozen=True)
class StoreMiss(Event):
    """``ExperimentStore.get`` found no cached cell for a digest."""

    kind: ClassVar[str] = "store_miss"
    digest: str


@dataclass(frozen=True)
class StorePut(Event):
    """``ExperimentStore.put`` committed one cell's record batch."""

    kind: ClassVar[str] = "store_put"
    digest: str
    records: int


# -- fabric ----------------------------------------------------------------


@dataclass(frozen=True)
class LeaseClaimed(Event):
    """The lease queue granted a cell to a worker."""

    kind: ClassVar[str] = "lease_claimed"
    index: int
    worker: str
    lease_id: str


@dataclass(frozen=True)
class LeaseExpired(Event):
    """A lease's deadline passed and its cell was requeued (or quarantined)."""

    kind: ClassVar[str] = "lease_expired"
    index: int
    worker: str
    attempts: int


@dataclass(frozen=True)
class LeaseFailed(Event):
    """A live lease was failed explicitly (e.g. a rejected result)."""

    kind: ClassVar[str] = "lease_failed"
    index: int
    worker: str
    reason: str
    attempts: int


@dataclass(frozen=True)
class CellQuarantined(Event):
    """A cell spent its retry budget and left the rotation."""

    kind: ClassVar[str] = "cell_quarantined"
    index: int
    reason: str
    attempts: int


@dataclass(frozen=True)
class WorkerHeartbeat(Event):
    """A fabric worker pinged its lease to keep it alive."""

    kind: ClassVar[str] = "worker_heartbeat"
    worker: str
    lease_id: str
    valid: bool


#: ``kind`` string -> event class, for trace decoding and the docs table.
EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        SweepStarted,
        SweepFinished,
        CellStarted,
        CellFinished,
        StoreHit,
        StoreMiss,
        StorePut,
        LeaseClaimed,
        LeaseExpired,
        LeaseFailed,
        CellQuarantined,
        WorkerHeartbeat,
    )
}


def event_to_json(event: Event) -> dict:
    """Flatten an event to a JSON-safe dict (``{"event": kind, **fields}``)."""
    return {"event": event.kind, **dataclasses.asdict(event)}


def event_from_json(payload: dict) -> Event:
    """Rebuild a typed event from :func:`event_to_json` output.

    Unknown keys beyond ``event`` and the sink-stamped ``ts`` are rejected
    by the dataclass constructor, so a trace written by a different schema
    fails loudly instead of decoding into the wrong shape.
    """
    fields = dict(payload)
    kind = fields.pop("event")
    fields.pop("ts", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown event kind {kind!r}; known kinds: {sorted(EVENT_KINDS)}"
        )
    return cls(**fields)
