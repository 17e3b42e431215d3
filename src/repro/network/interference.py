"""Interference predicates under the UDG model.

The paper's colour definition (Eq. 1, constraint 3) declares two concurrent
relays ``u`` and ``v`` interference-free iff they have **no common uncovered
neighbour**::

    N(u) ∩ N(v) ∩ W̄ = ∅

i.e. no node that still needs the message would hear both transmissions in
the same round/slot.  Covered nodes hearing multiple transmissions are
harmless because they already hold the message.  These predicates are the
single implementation used by the colouring engine, the simulators' schedule
validator and the baselines, so the notion of "conflict" cannot drift between
the scheduler and the checker.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable

from repro.network.topology import WSNTopology

__all__ = [
    "has_conflict",
    "conflict_free",
    "conflicting_pairs",
    "receivers_of",
    "neighborhood_mask",
]


def has_conflict(
    topology: WSNTopology,
    u: int,
    v: int,
    covered: frozenset[int] | set[int],
) -> bool:
    """True iff transmitters ``u`` and ``v`` share an uncovered neighbour."""
    if u == v:
        return False
    uncovered_mask = topology.full_mask & ~topology.mask_from_nodes(covered)
    return bool(
        topology.neighbor_mask(u) & topology.neighbor_mask(v) & uncovered_mask
    )


def conflict_free(
    topology: WSNTopology,
    transmitters: Collection[int],
    covered: frozenset[int] | set[int],
) -> bool:
    """True iff no pair of ``transmitters`` conflicts with respect to ``covered``."""
    transmitters = list(transmitters)
    uncovered_mask = topology.full_mask & ~topology.mask_from_nodes(covered)
    for u, v in combinations(transmitters, 2):
        if topology.neighbor_mask(u) & topology.neighbor_mask(v) & uncovered_mask:
            return False
    return True


def conflicting_pairs(
    topology: WSNTopology,
    transmitters: Collection[int],
    covered: frozenset[int] | set[int],
) -> list[tuple[int, int]]:
    """Return every conflicting transmitter pair (ordered, for diagnostics)."""
    pairs: list[tuple[int, int]] = []
    ordered = sorted(transmitters)
    uncovered_mask = topology.full_mask & ~topology.mask_from_nodes(covered)
    for u, v in combinations(ordered, 2):
        if topology.neighbor_mask(u) & topology.neighbor_mask(v) & uncovered_mask:
            pairs.append((u, v))
    return pairs


def receivers_of(
    topology: WSNTopology,
    transmitters: Iterable[int],
    covered: frozenset[int] | set[int],
) -> frozenset[int]:
    """The set of uncovered nodes reached by an interference-free relay set.

    This is the *broadcasting advance* ``A(W, t)`` of the paper when
    ``transmitters`` is the selected colour: the union of the transmitters'
    neighbourhoods restricted to ``W̄``.  The caller is responsible for
    ensuring the set is conflict-free (use :func:`conflict_free`).
    """
    reached_mask = 0
    for u in transmitters:
        reached_mask |= topology.neighbor_mask(u)
    reached_mask &= ~topology.mask_from_nodes(covered)
    return topology.nodes_from_mask(reached_mask)


def neighborhood_mask(topology: WSNTopology, nodes: int) -> int:
    """``N(C)``, the union of the neighbourhoods of the mask ``nodes``, as a mask.

    The mask form of :func:`receivers_of`: ``neighborhood_mask(C) & ~W``
    is the advance ``A(W, t)`` of the colour ``C``.
    """
    neighbors = topology.neighbor_masks
    reached = 0
    while nodes:
        low = nodes & -nodes
        reached |= neighbors[low.bit_length() - 1]
        nodes ^= low
    return reached
