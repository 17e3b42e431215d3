"""The wake-up index: one lazily grown activity window per (schedule, topology).

:meth:`~repro.dutycycle.schedule.WakeupSchedule.is_active` answers one
``(node, slot)`` point query at a time.  The vectorized engine, its trace
validator, the 17-approximation's plan and the time counter's search all
ask the same questions over whole node sets instead — "which frontier
nodes are awake now?", "when does the next frontier node wake up?" — so
they share one index per (schedule, topology) pair, built by
:func:`window_for`: per-slot awake masks (bit ``i`` is ``node_ids[i]``,
the bit order of
:attr:`~repro.network.topology.WSNTopology.neighbor_masks`).

The masks grow in chunks, doubling on demand, so short broadcasts never
pay for a worst-case slot limit.  Every bit is
:meth:`WakeupSchedule.is_active` evaluated pointwise.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.dutycycle.schedule import WakeupSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import WSNTopology

__all__ = ["ActivityWindow", "window_for"]


class ActivityWindow:
    """Lazily grown per-slot awake masks of one schedule.

    Bits follow the topology's node-id order; ``awake_mask(s)`` is slot
    ``s``.
    """

    __slots__ = ("_schedule_ref", "_node_ids", "_masks", "_horizon", "rate")

    def __init__(self, schedule: WakeupSchedule, topology: WSNTopology) -> None:
        # Weak back-reference: windows are cached per schedule in a
        # WeakKeyDictionary, so a strong reference here would pin the key
        # forever and leak the awake masks.
        self._schedule_ref = weakref.ref(schedule)
        self._node_ids = [int(u) for u in topology.node_ids]
        # Chunk sizing tracks the slowest node so one extension always
        # covers at least a few cycles of every node.
        self.rate = schedule.max_rate
        self._horizon = 0
        self._masks: list[int] = []

    def ensure(self, slot: int) -> None:
        """Grow the window so that ``slot`` is materialised."""
        if slot <= self._horizon:
            return
        schedule = self._schedule_ref()
        if schedule is None:  # pragma: no cover - requires racing the GC
            raise ReferenceError("the schedule behind this window was garbage-collected")
        new_horizon = max(slot, max(self._horizon, 4 * self.rate, 64) * 2)
        extension = schedule.activity_window(
            self._node_ids, self._horizon + 1, new_horizon
        )
        packed = np.packbits(extension.T, axis=1, bitorder="little")
        self._masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
        self._horizon = new_horizon

    def awake_mask(self, slot: int) -> int:
        """Every node awake at ``slot``, as a bitmask in node-id order."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        self.ensure(slot)
        return self._masks[slot - 1]

    def next_awake(self, nodes: int, slot: int) -> int | None:
        """Earliest slot >= ``slot`` at which a node of the mask ``nodes`` is awake.

        ``None`` when ``nodes`` is empty.  Every node wakes at least once per
        repetition of its schedule, so the scan always ends.
        """
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        if not nodes:
            return None
        masks = self._masks
        while True:
            self.ensure(slot)
            for index in range(slot - 1, self._horizon):
                if masks[index] & nodes:
                    return index + 1
            slot = self._horizon + 1


_WINDOW_CACHE: (
    "weakref.WeakKeyDictionary[WakeupSchedule, list[tuple[weakref.ref, ActivityWindow]]]"
) = weakref.WeakKeyDictionary()


def window_for(schedule: WakeupSchedule, topology: WSNTopology) -> ActivityWindow:
    """The cached activity window for a (schedule, topology) pair.

    Topologies are matched by identity through weak references (not
    ``id()``, which the allocator may recycle after a topology is
    collected).
    """
    per_schedule = _WINDOW_CACHE.get(schedule)
    if per_schedule is None:
        per_schedule = []
        _WINDOW_CACHE[schedule] = per_schedule
    for topology_ref, window in per_schedule:
        if topology_ref() is topology:
            return window
    window = ActivityWindow(schedule, topology)
    per_schedule[:] = [(r, w) for r, w in per_schedule if r() is not None]
    per_schedule.append((weakref.ref(topology), window))
    return window
