"""The wake-up index: one lazily grown activity window per (schedule, topology).

:meth:`~repro.dutycycle.schedule.WakeupSchedule.is_active` answers one
``(node, slot)`` point query at a time.  The vectorized engine, its trace
validator and the time counter's search all ask the same questions over
whole node sets instead — "which frontier nodes are awake now?", "when does
the next frontier node wake up?" — so they share one index per
(schedule, topology view) pair, built by :func:`window_for`:

* a boolean activity matrix (rows in the view's node order, column ``j`` is
  slot ``j + 1``) for the engine's and the validator's array queries;
* per-slot awake masks (bit ``i`` is ``node_ids[i]``, the bit order of
  :attr:`~repro.network.topology.WSNTopology.neighbor_masks`) for the
  search's bitmask states.

Both grow together, doubling on demand, so short broadcasts never pay for
a worst-case slot limit.  Every entry is :meth:`WakeupSchedule.is_active`
evaluated pointwise.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.dutycycle.schedule import WakeupSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.bitset import BitsetTopology

__all__ = ["ActivityWindow", "window_for"]


class ActivityWindow:
    """Lazily grown activity matrix and per-slot awake masks of one schedule.

    Rows follow the bitset view's node order; column ``j`` is slot
    ``j + 1``; ``awake_mask(s)`` packs column ``s - 1`` into an int.
    """

    __slots__ = ("_schedule_ref", "_node_ids", "_matrix", "_masks", "_horizon", "rate")

    def __init__(self, schedule: WakeupSchedule, view: BitsetTopology) -> None:
        # Weak back-reference: windows are cached per schedule in a
        # WeakKeyDictionary, so a strong reference here would pin the key
        # forever and leak the activity matrices.
        self._schedule_ref = weakref.ref(schedule)
        self._node_ids = [int(u) for u in view.node_ids]
        # Chunk sizing tracks the slowest node so one extension always
        # covers at least a few cycles of every node.
        self.rate = schedule.max_rate
        self._horizon = 0
        self._matrix = np.zeros((view.num_nodes, 0), dtype=bool)
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
        self._matrix = np.concatenate([self._matrix, extension], axis=1)
        packed = np.packbits(extension.T, axis=1, bitorder="little")
        self._masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
        self._horizon = new_horizon

    def active_rows(self, rows: np.ndarray, slot: int) -> np.ndarray:
        """Boolean activity of the given rows at ``slot``."""
        self.ensure(slot)
        return self._matrix[rows, slot - 1]

    def active_pairs(self, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Element-wise activity of ``(rows[i], slots[i])`` pairs."""
        if len(slots) == 0:
            return np.zeros(0, dtype=bool)
        self.ensure(int(slots.max(initial=1)))
        return self._matrix[rows, slots - 1]

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


def window_for(schedule: WakeupSchedule, view: BitsetTopology) -> ActivityWindow:
    """The cached activity window for a (schedule, topology-view) pair.

    Views are matched by identity through weak references (not ``id()``,
    which the allocator may recycle after a view is collected).
    """
    per_schedule = _WINDOW_CACHE.get(schedule)
    if per_schedule is None:
        per_schedule = []
        _WINDOW_CACHE[schedule] = per_schedule
    for view_ref, window in per_schedule:
        if view_ref() is view:
            return window
    window = ActivityWindow(schedule, view)
    per_schedule[:] = [(r, w) for r, w in per_schedule if r() is not None]
    per_schedule.append((weakref.ref(view), window))
    return window
