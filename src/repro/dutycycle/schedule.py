"""Pseudo-random wake-up schedules ``T(u)`` for the duty-cycle system.

Section III of the paper: each node periodically turns its *sending* channel
on according to "a pseudo-random sequence in the uniform distribution with a
preset seed"; the receiving channel is always on.  With cycle rate ``r``
(slots per cycle on average), the node is active to send once per ``r``-slot
cycle, but not at a fixed offset: the active slot inside each cycle is drawn
uniformly at random.  Because the sequence is pseudo-random with a known
seed, any neighbour that learned the seed and the last active slot during
beaconing can *predict* future wake-ups — which is exactly the API exposed
here (:meth:`WakeupSchedule.next_active_slot`).

Every cycle holds exactly one active slot, so a node's stream is one row
of slots, ``slots[k]`` being the active slot of cycle ``k``.  All the
pseudo-random nodes of a schedule share one
:class:`~repro.dutycycle.streams.WakeupStreams` block: point queries are
index computations (:meth:`~WakeupSchedule.is_active` reads one cycle,
:meth:`~WakeupSchedule.next_active_slot` at most two), and the block grows
on demand in geometric chunks, every row at once in one pass of array
operations, so a schedule can be queried arbitrarily far into the future
without pre-committing to a horizon.
:meth:`~WakeupSchedule.activity_window` reads the cycles of every row in
one gather and fills its matrix in one scatter.  Nodes of rate 1 are
active in every slot and draw nothing.

Heterogeneous rates
-------------------
The paper assigns one global cycle rate ``r`` to every node.  Real
deployments are rarely that homogeneous: mains-powered backbone nodes duty
cycle aggressively while battery nodes sleep most of the time.
:class:`WakeupSchedule` therefore accepts an optional per-node ``rates``
mapping that overrides the base rate node by node; every query API
(:meth:`~WakeupSchedule.is_active`, :meth:`~WakeupSchedule.next_active_slot`,
:meth:`~WakeupSchedule.activity_window`, ...) is rate-agnostic.  Named rate
*assignment models* (two-tier, zipf, ...) live in
:mod:`repro.dutycycle.models`.  Worst-case bounds (simulation caps, search
horizons) must use :attr:`WakeupSchedule.max_rate` — the slowest node's
rate — rather than :attr:`WakeupSchedule.rate`, which stays the base rate.

Determinism contract: a node's wake-up stream depends only on
``(seed, node_id, its rate)``, never on the other nodes' rates, so any two
schedules built from the same seed agree on every node they share.  Cycle
``k``'s slot is ``k*r + rng.integers(1, r + 1)`` for the ``k``-th scalar
draw of ``rng = np.random.default_rng(derive_seed(seed, "wakeup", node))``.
The stream block reproduces numpy's seeding and draws bit for bit without
building that generator, and drawing ahead never changes an earlier cycle,
so the slots are the same however far ahead the block has grown and in
whatever order the queries arrive.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.dutycycle.streams import WakeupStreams
from repro.utils.rng import derive_seeds
from repro.utils.validation import require

__all__ = ["WakeupSchedule"]


class _EverySlot:
    """A node of cycle rate 1: active in every slot, with no draws."""

    __slots__ = ()

    def is_active(self, slot: int) -> bool:
        return True

    def next_active(self, slot: int) -> int:
        return slot

    def active_slots_until(self, horizon: int) -> list[int]:
        return list(range(1, horizon + 1))


_EVERY_SLOT = _EverySlot()


class _ExplicitSequence:
    """Wake-up slots given explicitly (used for the paper's worked examples)."""

    __slots__ = ("_rate", "_slots", "_slot_set")

    def __init__(self, rate: int, slots: Sequence[int]) -> None:
        ordered = sorted(set(int(s) for s in slots))
        require(bool(ordered), "explicit schedule needs at least one slot")
        require(ordered[0] >= 1, "slots are 1-based; got a slot < 1")
        self._rate = rate
        self._slots = ordered
        self._slot_set = set(ordered)

    def _horizon(self) -> int:
        """Length of the explicitly specified (repeating) prefix, in slots."""
        return ((self._slots[-1] - 1) // self._rate + 1) * self._rate

    def is_active(self, slot: int) -> bool:
        if slot in self._slot_set:
            return True
        # Beyond the explicit horizon the pattern repeats, which keeps
        # examples finite while still defining an infinite schedule.
        horizon = self._horizon()
        if slot > horizon:
            reduced = (slot - 1) % horizon + 1
            return reduced in self._slot_set
        return False

    def next_active(self, slot: int) -> int:
        for active in self._slots:
            if active >= slot:
                return active
        horizon = self._horizon()
        base = ((slot - 1) // horizon) * horizon
        while True:
            for active in self._slots:
                candidate = base + active
                if candidate >= slot:
                    return candidate
            base += horizon

    def active_slots_until(self, horizon: int) -> list[int]:
        return [s for s in range(1, horizon + 1) if self.is_active(s)]


class WakeupSchedule:
    """Wake-up schedules for every node of a topology.

    Pseudo-random nodes of rate ``r > 1`` are rows of one
    :class:`~repro.dutycycle.streams.WakeupStreams` block, drawn lazily;
    nodes of rate 1 wake every slot; explicit nodes follow their slot lists.

    Parameters
    ----------
    node_ids:
        The nodes to generate schedules for.
    rate:
        The base cycle rate ``r`` (paper notation): on average one sending
        opportunity every ``r`` slots.  ``rate=1`` degenerates to the
        synchronous system (every node can send every slot).
    seed:
        Base seed; each node derives an independent stream from it.
        ``None`` means base seed 0 (a fixed schedule, unlike
        :func:`repro.utils.rng.make_rng`, where ``None`` draws OS entropy).
    explicit:
        Optional mapping ``node_id -> sequence of active slots`` overriding
        the pseudo-random generation for those nodes (used to reproduce the
        paper's Figure 2(e)/Table IV example).
    rates:
        Optional mapping ``node_id -> cycle rate`` overriding the base rate
        for those nodes (heterogeneous duty cycling; see
        :mod:`repro.dutycycle.models` for named assignment models).  Nodes
        absent from the mapping keep the base ``rate``.
    """

    def __init__(
        self,
        node_ids: Iterable[int],
        rate: int,
        *,
        seed: int | None = 0,
        explicit: Mapping[int, Sequence[int]] | None = None,
        rates: Mapping[int, int] | None = None,
    ) -> None:
        require(rate >= 1, f"cycle rate must be >= 1, got {rate}")
        self._rate = int(rate)
        self._node_ids = tuple(sorted(set(int(u) for u in node_ids)))
        base_seed = 0 if seed is None else int(seed)
        explicit = dict(explicit or {})
        unknown = set(explicit) - set(self._node_ids)
        if unknown:
            raise ValueError(f"explicit schedules for unknown nodes: {sorted(unknown)}")
        overrides = {int(u): int(r) for u, r in (rates or {}).items()}
        unknown_rates = set(overrides) - set(self._node_ids)
        if unknown_rates:
            raise ValueError(f"rates for unknown nodes: {sorted(unknown_rates)}")
        for node_id, node_rate in overrides.items():
            if node_rate < 1:
                raise ValueError(f"cycle rate must be >= 1, got {node_rate} for node {node_id}")
        self._rates: dict[int, int] = {
            u: overrides.get(u, self._rate) for u in self._node_ids
        }
        # Rows of the stream block for the drawn nodes; explicit and rate-1
        # nodes answer from their own sequence.
        self._sequences: dict[int, _ExplicitSequence | _EverySlot] = {}
        self._rows: dict[int, int] = {}
        for node_id in self._node_ids:
            node_rate = self._rates[node_id]
            if node_id in explicit:
                self._sequences[node_id] = _ExplicitSequence(node_rate, explicit[node_id])
            elif node_rate == 1:
                self._sequences[node_id] = _EVERY_SLOT
            else:
                self._rows[node_id] = len(self._rows)
        self._streams = WakeupStreams(
            derive_seeds(base_seed, self._rows, "wakeup"),
            [self._rates[u] for u in self._rows],
        )

    # ------------------------------------------------------------------
    @property
    def rate(self) -> int:
        """The base cycle rate ``r`` (nodes without an override use it)."""
        return self._rate

    @property
    def max_rate(self) -> int:
        """The slowest node's cycle rate — use this for worst-case bounds."""
        return max(self._rates.values(), default=self._rate)

    @property
    def rates(self) -> dict[int, int]:
        """Per-node cycle rates (a copy; every node is present)."""
        return dict(self._rates)

    @property
    def is_heterogeneous(self) -> bool:
        """True iff at least two nodes have different cycle rates."""
        return len(set(self._rates.values())) > 1

    def rate_of(self, node_id: int) -> int:
        """The cycle rate of one node."""
        return self._rates[node_id]

    @property
    def node_ids(self) -> tuple[int, ...]:
        """Nodes covered by this schedule."""
        return self._node_ids

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._rates

    def is_active(self, node_id: int, slot: int) -> bool:
        """True iff ``slot`` ∈ ``T(node_id)`` (the node may send then)."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        row = self._rows.get(node_id)
        if row is None:
            return self._sequences[node_id].is_active(slot)
        return self._streams.is_active(row, slot)

    def next_active_slot(self, node_id: int, slot: int) -> int:
        """The earliest slot >= ``slot`` at which ``node_id`` may send."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        row = self._rows.get(node_id)
        if row is None:
            return self._sequences[node_id].next_active(slot)
        return self._streams.next_active(row, slot)

    def awake_nodes(self, candidates: Iterable[int], slot: int) -> frozenset[int]:
        """Subset of ``candidates`` whose sending channel is on at ``slot``."""
        return frozenset(u for u in candidates if self.is_active(u, slot))

    def next_awake_slot(self, candidates: Iterable[int], slot: int) -> int | None:
        """Earliest slot >= ``slot`` at which *some* candidate is awake.

        Returns ``None`` when ``candidates`` is empty.  This is the hook the
        slot-based simulator uses to skip long stretches of idle slots
        without iterating them one by one.
        """
        best: int | None = None
        for u in candidates:
            nxt = self.next_active_slot(u, slot)
            if best is None or nxt < best:
                best = nxt
        return best

    def active_slots_until(self, node_id: int, horizon: int) -> list[int]:
        """All active slots of ``node_id`` up to and including ``horizon``."""
        if horizon < 1:
            return []
        row = self._rows.get(node_id)
        if row is None:
            return self._sequences[node_id].active_slots_until(horizon)
        return self._streams.active_slots_until(row, horizon)

    def activity_window(
        self, node_ids: Sequence[int], start: int, stop: int
    ) -> np.ndarray:
        """Activity as a boolean matrix over a slot window (vectorized view).

        Row ``i`` follows ``node_ids[i]`` (callers pick the row order, e.g.
        the vectorized engine passes rows in topology-index order); column
        ``j`` is slot ``start + j``; ``stop`` is inclusive.  Entry
        ``(i, j)`` is ``True`` iff ``start + j`` is in ``T(node_ids[i])``,
        i.e. exactly :meth:`is_active` evaluated pointwise.

        Drawn rows read the slots of every cycle meeting the window from
        the stream block in one gather and land in the matrix in one
        scatter.  Rate-1 rows are all ``True``; explicit rows (the paper's
        examples) are set from their own slot lists.
        """
        require(start >= 1, "slots are 1-based")
        width = stop - start + 1
        out = np.zeros((len(node_ids), max(width, 0)), dtype=bool)
        if width <= 0:
            return out
        positions: list[int] = []
        rows: list[int] = []
        for position, node_id in enumerate(node_ids):
            row = self._rows.get(node_id)
            if row is not None:
                positions.append(position)
                rows.append(row)
                continue
            sequence = self._sequences[node_id]
            if sequence is _EVERY_SLOT:
                out[position] = True
                continue
            for slot in sequence.active_slots_until(stop):
                if slot >= start:
                    out[position, slot - start] = True
        if rows:
            hits, slots = self._streams.window_hits(np.array(rows), start, stop)
            out[np.array(positions)[hits], slots - start] = True
        return out

    # ------------------------------------------------------------------
    @classmethod
    def synchronous(cls, node_ids: Iterable[int]) -> "WakeupSchedule":
        """A degenerate schedule where every node may send in every slot."""
        return cls(node_ids, rate=1, seed=0)

    @classmethod
    def from_explicit(
        cls, schedules: Mapping[int, Sequence[int]], rate: int
    ) -> "WakeupSchedule":
        """Build a schedule entirely from explicit per-node slot lists."""
        return cls(schedules.keys(), rate=rate, seed=0, explicit=schedules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeupSchedule(rate={self._rate}, nodes={len(self._node_ids)})"
