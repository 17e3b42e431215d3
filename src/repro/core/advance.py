"""Broadcast state and the *broadcasting advance* ``A(W, t)``.

The paper's schedulers operate on the pair ``(W, t)``: the set ``W`` of
nodes that already received the message and the current round/slot ``t``.
Selecting a colour ``C_i`` and letting all its members relay concurrently is
called an *advance*; the advance's receivers are ``N(u)`` over ``u ∈ C_i``
restricted to ``W̄``.  These two immutable records are the contract between
the scheduling policies (:mod:`repro.core.policies`) and the simulators
(:mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import neighborhood_mask
from repro.network.topology import WSNTopology

__all__ = ["BroadcastState", "Advance"]


@dataclass(frozen=True)
class BroadcastState:
    """The scheduling state ``(W, t)`` a policy decides on.

    Attributes
    ----------
    topology:
        The network.
    covered:
        ``W`` — nodes already holding the message.
    time:
        The current round (synchronous system) or slot (duty-cycle system),
        1-based.
    schedule:
        The wake-up schedule for the duty-cycle system, or ``None`` for the
        round-based synchronous system (every node may send every round).
    covered_mask:
        ``W`` as a bitmask (bit ``i`` is ``topology.node_ids[i]``), the form
        the policies decide on.  Derived, not a constructor argument: the
        constructor computes it from ``covered`` once, and the engines hand
        in the mask they already hold through :meth:`for_engine`.
    """

    topology: WSNTopology
    covered: frozenset[int]
    time: int
    schedule: WakeupSchedule | None = None
    covered_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            mask = self.topology.mask_from_nodes(self.covered)
        except KeyError:
            unknown = self.covered - self.topology.node_set
            raise ValueError(f"covered contains unknown nodes: {sorted(unknown)}") from None
        if self.time < 1:
            raise ValueError(f"time is 1-based, got {self.time}")
        object.__setattr__(self, "covered_mask", mask)

    @classmethod
    def for_engine(
        cls,
        topology: WSNTopology,
        covered: frozenset[int],
        time: int,
        schedule: WakeupSchedule | None,
        covered_mask: int,
    ) -> "BroadcastState":
        """Internal fast constructor for the simulation engines.

        Skips the membership check and the mask conversion of
        ``__post_init__``: the engines construct one state per simulated
        round/slot, their covered sets are valid by construction (they only
        grow by checked receiver sets) and they carry ``covered_mask``
        beside ``covered``, so neither ``O(|W|)`` pass is needed.  External
        callers should use the normal constructor.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "topology", topology)
        object.__setattr__(state, "covered", covered)
        object.__setattr__(state, "time", time)
        object.__setattr__(state, "schedule", schedule)
        object.__setattr__(state, "covered_mask", covered_mask)
        return state

    @property
    def uncovered(self) -> frozenset[int]:
        """``W̄ = N - W``."""
        return self.topology.node_set - self.covered

    @property
    def is_complete(self) -> bool:
        """True when every node holds the message (``W = N``)."""
        return len(self.covered) == self.topology.num_nodes

    @property
    def is_synchronous(self) -> bool:
        """True for the round-based system (no wake-up schedule attached)."""
        return self.schedule is None

    def awake(self, nodes: frozenset[int] | set[int]) -> frozenset[int]:
        """Subset of ``nodes`` allowed to send at the current time.

        In the synchronous system every node may send; in the duty-cycle
        system only nodes with ``time ∈ T(u)``.
        """
        if self.schedule is None:
            return frozenset(nodes)
        return self.schedule.awake_nodes(nodes, self.time)

    def advanced(self, advance: "Advance | None", new_time: int) -> "BroadcastState":
        """Return the successor state after applying ``advance`` at ``new_time``."""
        new_covered = self.covered
        if advance is not None:
            new_covered = self.covered | advance.receivers
        return BroadcastState(
            topology=self.topology,
            covered=new_covered,
            time=new_time,
            schedule=self.schedule,
        )


@dataclass(frozen=True)
class Advance:
    """One broadcasting advance: a selected colour relaying at ``time``.

    Attributes
    ----------
    time:
        The round/slot at which the colour transmits.
    color:
        The transmitting nodes (the selected colour ``C_i``).
    receivers:
        The uncovered nodes reached by this advance (``A(W, t)``).
    color_index:
        1-based index of the selected colour in the colouring that produced
        it (``i`` of ``C_i``); 0 when not applicable (e.g. the source's own
        initial transmission).
    num_colors:
        ``λ(W)`` — the number of colours the colouring produced, recorded
        for traces and metrics.
    intended_receivers:
        Set by the lossy engines only: the receivers the advance *would*
        have reached over reliable links (the uncovered neighbours of its
        transmitters), of which :attr:`receivers` records the subset whose
        delivery succeeded.  ``None`` (the default, and always the value on
        reliable links) means "identical to ``receivers``" — see
        :attr:`intended`.  Energy and transmission accounting keys off
        ``color`` per advance, so retransmissions are charged whether or
        not their deliveries succeed.
    """

    time: int
    color: frozenset[int]
    receivers: frozenset[int]
    color_index: int = 0
    num_colors: int = 0
    note: str = field(default="", compare=False)
    intended_receivers: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.time < 1:
            raise ValueError(f"time is 1-based, got {self.time}")
        if not self.color:
            raise ValueError("an advance needs at least one transmitter")

    @property
    def utilization(self) -> float:
        """Receivers per transmitter (the link utilisation of the advance)."""
        return len(self.receivers) / len(self.color)

    @property
    def intended(self) -> frozenset[int]:
        """The receivers intended over reliable links (see ``intended_receivers``)."""
        return self.receivers if self.intended_receivers is None else self.intended_receivers

    @property
    def failed_deliveries(self) -> int:
        """Intended receivers whose delivery failed (0 on reliable links)."""
        return len(self.intended) - len(self.receivers)

    @classmethod
    def from_masks(
        cls,
        topology: WSNTopology,
        color: int,
        receivers: int,
        time: int,
        *,
        color_index: int = 0,
        num_colors: int = 0,
        note: str = "",
    ) -> "Advance":
        """Build an advance from a colour mask and its receivers mask.

        ``receivers`` must be ``N(C) \\ W`` for the state the colour is
        chosen at, which is the pair a mask-native producer already holds
        (the engines reject any other set).  Bit ``i`` is
        ``topology.node_ids[i]``.
        """
        return cls(
            time=time,
            color=topology.nodes_from_mask(color),
            receivers=topology.nodes_from_mask(receivers),
            color_index=color_index,
            num_colors=num_colors,
            note=note,
        )

    @classmethod
    def from_color(
        cls,
        topology: WSNTopology,
        covered: frozenset[int],
        color: frozenset[int],
        time: int,
        *,
        color_index: int = 0,
        num_colors: int = 0,
        note: str = "",
    ) -> "Advance":
        """Build an advance from a colour, computing its receivers."""
        color_mask = topology.mask_from_nodes(color)
        return cls.from_masks(
            topology,
            color_mask,
            neighborhood_mask(topology, color_mask) & ~topology.mask_from_nodes(covered),
            time,
            color_index=color_index,
            num_colors=num_colors,
            note=note,
        )
