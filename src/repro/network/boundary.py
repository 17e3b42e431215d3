"""Network-edge (boundary) detection used to seed the E-model.

The paper identifies "the edge of the network" by applying the boundary
construction of Goldenberg et al. [6] starting from any node on the convex
hull [3] of the deployment (Algorithm 2, step 1).  The role of that phase is
only to decide which nodes may seed the quadrant estimates ``E_i`` with zero.

Substitution (documented in docs/design.md, "Network edge"): the original
boundary construction walks the outer face of the UDG with right-hand-rule
link traversal.  Here a node is classified as a boundary node when either

* it is a vertex of the convex hull of the node positions, or
* at least one of its four quadrants contains no neighbour (the exact
  predicate Algorithm 2 uses to zero ``E_i``), or
* it lies on the outer face in the sense that some half-plane through the
  node contains none of its neighbours (an "exposed" node).

These three conditions select the perimeter nodes of a connected UDG
deployment; the only property the downstream E-model relies on is that every
node with an empty quadrant on the perimeter is available as a seed, which
the paper's own step 5 re-establishes for interior local minima anyway.
"""

from __future__ import annotations

import math

from repro.network.geometry import convex_hull
from repro.network.quadrant import QUADRANTS, quadrant_neighbors
from repro.network.topology import WSNTopology

__all__ = ["hull_nodes", "boundary_nodes", "is_exposed"]


def hull_nodes(topology: WSNTopology) -> frozenset[int]:
    """Node ids whose positions are vertices of the deployment's convex hull."""
    if topology.num_nodes == 0:
        return frozenset()
    hull_points = set(convex_hull([topology.position(u) for u in topology.node_ids]))
    return frozenset(
        u for u in topology.node_ids if topology.position(u) in hull_points
    )


def is_exposed(topology: WSNTopology, node_id: int, *, samples: int = 36) -> bool:
    """True when some half-plane through ``node_id`` contains no neighbour.

    A node strictly inside a well-covered region has neighbours all around
    it, so every half-plane through it contains at least one neighbour; a
    perimeter node has an outward-facing empty half-plane.  ``samples``
    candidate directions are tested (sufficient for UDG neighbourhood sizes
    in the paper's densities).
    """
    neighbours = topology.neighbors(node_id)
    if not neighbours:
        return True
    origin = topology.position(node_id)
    angles = []
    for v in neighbours:
        pos = topology.position(v)
        angles.append(math.atan2(pos[1] - origin[1], pos[0] - origin[0]))
    angles.sort()
    # The node is exposed iff the largest angular gap between consecutive
    # neighbour directions exceeds pi (an empty half-plane exists).
    largest_gap = 0.0
    for index in range(len(angles)):
        nxt = angles[(index + 1) % len(angles)]
        gap = nxt - angles[index]
        if index == len(angles) - 1:
            gap += 2 * math.pi
        largest_gap = max(largest_gap, gap)
    del samples  # retained for API compatibility; the gap test is exact.
    return largest_gap > math.pi


def boundary_nodes(topology: WSNTopology) -> frozenset[int]:
    """The set of network-edge nodes (see module docstring for the criteria)."""
    result: set[int] = set(hull_nodes(topology))
    for u in topology.node_ids:
        if u in result:
            continue
        if any(not quadrant_neighbors(topology, u, q) for q in QUADRANTS):
            result.add(u)
            continue
        if is_exposed(topology, u):
            result.add(u)
    return frozenset(result)
