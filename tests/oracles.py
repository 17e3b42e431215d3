"""Deployment fixtures and reference helpers shared by several test modules.

The library keeps the mask-native forms (``WSNTopology.neighbor_mask``,
``quadrant_view``, ``boundary_nodes``); these are the plain per-node forms
the tests build fixtures from and compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng

Point = tuple[float, float]


def grid_deployment(
    rows: int,
    cols: int,
    *,
    spacing: float = 1.0,
    radius: float = 1.5,
    jitter: float = 0.0,
    seed: int | None = None,
) -> WSNTopology:
    """A regular grid deployment, ids in row-major order.

    With ``radius`` between ``spacing`` and ``spacing * sqrt(2)`` the grid is
    4-connected; above ``spacing * sqrt(2)`` it becomes 8-connected.  A small
    positional ``jitter`` breaks ties in the quadrant partition.
    """
    rng = make_rng(seed)
    positions = []
    for r in range(rows):
        for c in range(cols):
            dx = dy = 0.0
            if jitter > 0:
                dx, dy = rng.uniform(-jitter, jitter, size=2)
            positions.append((c * spacing + dx, r * spacing + dy))
    return WSNTopology.from_positions(np.asarray(positions), radius=radius)


def quadrant_index(origin: tuple[float, float], point: tuple[float, float]) -> int:
    """The quadrant (1-4) of ``point`` seen from ``origin``, one point at a time.

    The half-open convention of ``repro.network.quadrant``: ``Q_1`` is
    ``dx > 0, dy >= 0`` and the others follow counter-clockwise.
    """
    dx = point[0] - origin[0]
    dy = point[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("point coincides with origin; quadrant undefined")
    if dx > 0 and dy >= 0:
        return 1
    if dx <= 0 and dy > 0:
        return 2
    if dx < 0 and dy <= 0:
        return 3
    return 4


def edges(topology: WSNTopology) -> list[tuple[int, int]]:
    """Each undirected link once, as ``(smaller, larger)``, in id order."""
    return [
        (u, v) for u in topology.node_ids for v in sorted(topology.neighbors(u)) if u < v
    ]


def networkx_graph(topology: WSNTopology):
    """The topology as a :class:`networkx.Graph`, for cross-checks."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(topology.node_ids)
    graph.add_edges_from(edges(topology))
    return graph


def cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """2-D cross product of vectors OA and OB.

    Positive when O->A->B makes a counter-clockwise turn, negative for a
    clockwise turn, and zero when the three points are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """The convex hull of ``points`` in counter-clockwise order.

    Andrew's monotone chain.  Collinear points on the hull boundary are
    left out (only extreme vertices are returned); duplicates are
    tolerated.  Fewer than three distinct points come back deduplicated
    and sorted.
    """
    unique = sorted(set((float(x), float(y)) for x, y in points))
    if len(unique) <= 2:
        return unique

    lower: list[Point] = []
    for point in unique:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], point) <= 0:
            lower.pop()
        lower.append(point)

    upper: list[Point] = []
    for point in reversed(unique):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], point) <= 0:
            upper.pop()
        upper.append(point)

    # The last point of each list is the first point of the other list.
    return lower[:-1] + upper[:-1]


def hull_nodes(topology: WSNTopology) -> frozenset[int]:
    """Node ids whose positions are vertices of the deployment's convex hull.

    Every hull vertex has an empty quadrant, so this is a subset of
    ``repro.network.boundary.boundary_nodes``.
    """
    if topology.num_nodes == 0:
        return frozenset()
    hull_points = set(convex_hull([topology.position(u) for u in topology.node_ids]))
    return frozenset(u for u in topology.node_ids if topology.position(u) in hull_points)
