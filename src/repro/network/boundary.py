"""Network-edge (boundary) detection used to seed the E-model.

The paper identifies "the edge of the network" by applying the boundary
construction of Goldenberg et al. [6] starting from any node on the convex
hull [3] of the deployment (Algorithm 2, step 1).  The role of that phase is
only to decide which nodes may seed the quadrant estimates ``E_i`` with zero.

Substitution (documented in docs/design.md, "Network edge"): the original
boundary construction walks the outer face of the UDG with right-hand-rule
link traversal.  Here a node is a boundary node when at least one of its
four quadrants contains no neighbour — the exact predicate Algorithm 2 uses
to zero ``E_i``, read off the topology's
:class:`~repro.network.quadrant.QuadrantIndex`.

That set already holds every convex-hull vertex and every node with a
half-plane through it that contains no neighbour: an empty half-plane
through ``u`` (open or closed) always contains one whole half-open axis
quadrant of ``u``, so that quadrant is empty too.
"""

from __future__ import annotations

import numpy as np

from repro.network.geometry import convex_hull
from repro.network.quadrant import quadrant_view
from repro.network.topology import WSNTopology

__all__ = ["hull_nodes", "boundary_nodes"]


def hull_nodes(topology: WSNTopology) -> frozenset[int]:
    """Node ids whose positions are vertices of the deployment's convex hull."""
    if topology.num_nodes == 0:
        return frozenset()
    hull_points = set(convex_hull([topology.position(u) for u in topology.node_ids]))
    return frozenset(
        u for u in topology.node_ids if topology.position(u) in hull_points
    )


def boundary_nodes(topology: WSNTopology) -> frozenset[int]:
    """The network-edge nodes: every node with an empty quadrant."""
    edge = np.logical_or.reduce(quadrant_view(topology).empty)
    return frozenset(np.asarray(topology.node_ids, dtype=np.int64)[edge].tolist())
