"""Property-based tests for the UDG topology substrate."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings

from repro.network.boundary import boundary_nodes
from repro.network.quadrant import QUADRANTS, quadrant_view
from repro.network.topology import WSNTopology
from tests.oracles import edges, grid_deployment, hull_nodes, quadrant_index

from .conftest import topologies_with_source, udg_topologies


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_udg_edges_match_distance_threshold(topology):
    """u-v is an edge iff dist(u, v) <= radius (UDG definition)."""
    radius = topology.radius
    for u in topology.node_ids:
        for v in topology.node_ids:
            if u >= v:
                continue
            distance = math.dist(topology.position(u), topology.position(v))
            assert (v in topology.neighbors(u)) == (distance <= radius + 1e-12)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_neighborhoods_are_symmetric_and_irreflexive(topology):
    for u in topology.node_ids:
        assert u not in topology.neighbors(u)
        for v in topology.neighbors(u):
            assert u in topology.neighbors(v)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_mask_and_set_views_agree(topology):
    """The bitmask fast path is consistent with the frozenset API."""
    for u in topology.node_ids:
        assert topology.nodes_from_mask(topology.neighbor_mask(u)) == topology.neighbors(u)
    assert topology.nodes_from_mask(topology.full_mask) == topology.node_set


@settings(max_examples=60, deadline=None)
@given(topologies_with_source())
def test_hop_distances_satisfy_triangle_step(case):
    """BFS distances differ by at most one across an edge."""
    topology, source = case
    distances = topology.hop_distances(source)
    for u, v in edges(topology):
        assert abs(distances[u] - distances[v]) <= 1


@settings(max_examples=60, deadline=None)
@given(topologies_with_source())
def test_bfs_layers_partition_nodes(case):
    topology, source = case
    layers = topology.bfs_layers(source)
    union = set()
    for layer in layers:
        assert union.isdisjoint(layer)
        union |= layer
    assert union == set(topology.node_set)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_quadrants_partition_each_neighborhood(topology):
    masks = quadrant_view(topology).masks
    for row, u in enumerate(topology.node_ids):
        quadrants = [masks[q - 1][row] for q in QUADRANTS]
        union = 0
        for mask in quadrants:
            union |= mask
        assert union == topology.neighbor_mask(u)
        assert sum(mask.bit_count() for mask in quadrants) == len(topology.neighbors(u))


#: A 5x5 8-connected grid: the corner (id 0) is exposed, the centre (id 12)
#: has neighbours all around.
DENSE_GRID = grid_deployment(5, 5, spacing=1.0, radius=1.5, jitter=0.0, seed=0)
#: Two nodes out of range of each other: both isolated.
ISOLATED_PAIR = WSNTopology.from_positions([(0, 0), (10, 10)], radius=1.0)


def is_exposed(topology: WSNTopology, node_id: int) -> bool:
    """Oracle: some half-plane through ``node_id`` holds no neighbour.

    Exact angular-gap test: sort the neighbour directions and look for a gap
    wider than pi between consecutive ones (an isolated node is exposed).
    """
    origin = topology.position(node_id)
    angles = sorted(
        math.atan2(y - origin[1], x - origin[0])
        for x, y in map(topology.position, topology.neighbors(node_id))
    )
    if not angles:
        return True
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(gaps) > math.pi


def empty_quadrant_nodes(topology: WSNTopology) -> frozenset[int]:
    """Reference: nodes with a quadrant that no neighbour falls in, per node."""
    result = set()
    for u in topology.node_ids:
        origin = topology.position(u)
        occupied = {quadrant_index(origin, topology.position(v)) for v in topology.neighbors(u)}
        if occupied != set(QUADRANTS):
            result.add(u)
    return frozenset(result)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False, min_nodes=3))
@example(DENSE_GRID)
@example(ISOLATED_PAIR)
def test_boundary_is_the_empty_quadrant_set(topology):
    assert boundary_nodes(topology) == empty_quadrant_nodes(topology)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False, min_nodes=3))
@example(DENSE_GRID)
@example(ISOLATED_PAIR)
def test_exposed_and_hull_nodes_are_boundary_nodes(topology):
    """An empty half-plane through ``u`` holds a whole quadrant of ``u``."""
    boundary = boundary_nodes(topology)
    assert hull_nodes(topology) <= boundary
    assert {u for u in topology.node_ids if is_exposed(topology, u)} <= boundary


@pytest.mark.parametrize(
    "topology, node, exposed",
    [(DENSE_GRID, 0, True), (DENSE_GRID, 12, False), (ISOLATED_PAIR, 0, True)],
    ids=["grid-corner", "grid-centre", "isolated"],
)
def test_exposed_oracle_and_boundary_on_fixed_cases(topology, node, exposed):
    assert is_exposed(topology, node) is exposed
    assert (node in boundary_nodes(topology)) is exposed
