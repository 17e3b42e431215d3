"""Per-broadcast energy accounting (the paper's §VII "energy saving" direction).

The paper's duty-cycle model exists to save energy, and its conclusion lists
energy-aware optimisation as future work.  This module attaches a simple but
standard first-order radio energy model to a finished broadcast trace so the
schedulers can also be compared on the energy they burn, not only on latency:

* every transmission costs ``tx_cost``;
* every node inside a transmitter's range pays ``rx_cost`` for receiving (or
  overhearing) that transmission — the receiving channel is always on in the
  paper's model, so overhearing cannot be avoided;
* every node pays ``idle_cost`` for idle listening: its idle slots are the
  rounds/slots of the broadcast window minus the transmissions it heard
  (floored at zero), so each reception offsets one slot of the window — a
  node that hears two senders in one slot is charged one idle slot less
  than the slots in which it heard nothing;
* ``sleep_cost`` is kept for completeness of the interface (the paper's
  nodes never switch the receiving channel off, so it defaults to the idle
  cost).

The absolute unit is irrelevant for comparisons; the defaults follow the
usual CC1000/CC2420-class ratios (tx ≈ rx ≈ 20× idle listening).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.topology import WSNTopology
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.utils.validation import check_non_negative

__all__ = ["EnergyModel", "EnergyReport", "energy_of_broadcast"]


@dataclass(frozen=True)
class EnergyModel:
    """First-order radio energy model (arbitrary units per round/slot)."""

    tx_cost: float = 20.0
    rx_cost: float = 15.0
    idle_cost: float = 1.0
    sleep_cost: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("tx_cost", self.tx_cost)
        check_non_negative("rx_cost", self.rx_cost)
        check_non_negative("idle_cost", self.idle_cost)
        check_non_negative("sleep_cost", self.sleep_cost)


@dataclass
class EnergyReport:
    """Energy spent by one broadcast, total and per node."""

    model: EnergyModel
    transmissions: int
    receptions: int
    idle_slots: int
    per_node: dict[int, float] = field(default_factory=dict)

    @property
    def transmission_energy(self) -> float:
        """Energy spent on transmitting."""
        return self.transmissions * self.model.tx_cost

    @property
    def reception_energy(self) -> float:
        """Energy spent on receiving and overhearing."""
        return self.receptions * self.model.rx_cost

    @property
    def idle_energy(self) -> float:
        """Energy spent idle-listening during the broadcast window."""
        return self.idle_slots * self.model.idle_cost

    @property
    def total(self) -> float:
        """Total energy of the broadcast."""
        return self.transmission_energy + self.reception_energy + self.idle_energy

    def hottest_node(self) -> tuple[int, float]:
        """The node spending the most energy (relevant for lifetime)."""
        node = max(self.per_node, key=lambda u: self.per_node[u])
        return node, self.per_node[node]


def energy_of_broadcast(
    topology: WSNTopology,
    result: BroadcastResult | MultiBroadcastResult,
    model: EnergyModel | None = None,
) -> EnergyReport:
    """Account the energy of ``result`` on ``topology`` under ``model``.

    Receptions include overhearing: every neighbour of a transmitter is
    charged one reception for that advance, whether or not it was still
    waiting for the message (the paper's receiving channel is always on).
    Idle listening charges each node ``max(window - heard, 0)`` slots, where
    ``heard`` counts the transmissions within its range (the receptions it
    was charged), not the slots in which it heard one: two senders heard
    in one slot offset two slots of the window.

    The receptions of every node are one column sum over the adjacency
    rows of the transmissions, so no per-event neighbour set is built.

    A :class:`~repro.sim.trace.MultiBroadcastResult` is accounted over its
    merged advance stream with the *makespan* as the broadcast window, so
    ``k`` concurrent messages share one window instead of paying ``k``
    idle-listening windows — the whole point of batching wavefronts.
    """
    model = model or EnergyModel()
    index = topology.index_of
    # One row index per transmission; a node sending twice appears twice,
    # so the adjacency rows it selects sum to the receptions per node.
    senders = np.asarray(
        [index(u) for advance in result.advances for u in advance.color], dtype=np.intp
    )
    sent = np.bincount(senders, minlength=topology.num_nodes)
    heard = topology.adjacency_matrix[senders].sum(axis=0)
    idle = np.maximum(max(result.latency, 0) - heard, 0)
    per_node = (
        sent * float(model.tx_cost)
        + heard * float(model.rx_cost)
        + idle * float(model.idle_cost)
    )

    return EnergyReport(
        model=model,
        transmissions=len(senders),
        receptions=int(heard.sum()),
        idle_slots=int(idle.sum()),
        per_node=dict(zip(topology.node_ids, per_node.tolist())),
    )
