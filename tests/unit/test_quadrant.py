"""Unit tests for repro.network.quadrant."""

from __future__ import annotations

import pytest

from repro.core.estimation import build_edge_estimate
from repro.network.boundary import boundary_nodes
from repro.network.quadrant import QUADRANTS, quadrant_view
from repro.network.topology import WSNTopology
from tests.oracles import quadrant_index


@pytest.fixture
def star_topology() -> WSNTopology:
    """A centre node 0 with one neighbour in each quadrant."""
    positions = {
        0: (0.0, 0.0),
        1: (1.0, 0.5),    # Q1
        2: (-1.0, 0.5),   # Q2
        3: (-1.0, -0.5),  # Q3
        4: (1.0, -0.5),   # Q4
    }
    edges = [(0, i) for i in range(1, 5)]
    return WSNTopology.from_edges(edges, positions)


def _members(topology: WSNTopology, node_id: int, quadrant: int) -> frozenset[int]:
    """``N(u) ∩ Q_i(u)`` read off the index."""
    row = topology.index_of(node_id)
    return topology.nodes_from_mask(quadrant_view(topology).masks[quadrant - 1][row])


class TestQuadrantIndex:
    @pytest.mark.parametrize(
        "point, expected",
        [
            ((1.0, 0.5), 1),
            ((1.0, 0.0), 1),    # +x axis belongs to Q1
            ((0.0, 1.0), 2),    # +y axis belongs to Q2
            ((-1.0, 0.5), 2),
            ((-1.0, 0.0), 3),   # -x axis belongs to Q3
            ((-1.0, -0.5), 3),
            ((0.0, -1.0), 4),   # -y axis belongs to Q4
            ((1.0, -0.5), 4),
        ],
    )
    def test_boundary_convention(self, point, expected):
        topology = WSNTopology.from_edges([(0, 1)], {0: (0.0, 0.0), 1: point})
        assert [bool(_members(topology, 0, q)) for q in QUADRANTS] == [
            q == expected for q in QUADRANTS
        ]
        assert quadrant_index((0.0, 0.0), point) == expected

    def test_coincident_point_rejected(self):
        with pytest.raises(ValueError):
            quadrant_index((1.0, 1.0), (1.0, 1.0))

    def test_every_direction_maps_to_exactly_one_quadrant(self):
        import math

        for k in range(32):
            angle = 2 * math.pi * k / 32
            point = (math.cos(angle), math.sin(angle))
            topology = WSNTopology.from_edges([(0, 1)], {0: (0.0, 0.0), 1: point})
            assert sum(len(_members(topology, 0, q)) for q in QUADRANTS) == 1


class TestQuadrantNeighbors:
    def test_star_assignment(self, star_topology):
        for q in QUADRANTS:
            assert _members(star_topology, 0, q) == frozenset({q})

    def test_leaf_has_empty_opposite_quadrants(self, star_topology):
        # Node 1 sits in Q1 of the centre, so the centre sits in Q3 of node 1
        # and node 1 has no neighbour in its own Q1.
        assert _members(star_topology, 1, 1) == frozenset()
        assert _members(star_topology, 1, 3) == frozenset({0})


class TestQuadrantPartition:
    def test_partition_covers_all_neighbors_disjointly(self, star_topology, small_grid):
        for topo in (star_topology, small_grid):
            for u in topo.node_ids:
                parts = [_members(topo, u, q) for q in QUADRANTS]
                assert frozenset().union(*parts) == topo.neighbors(u)
                assert sum(len(members) for members in parts) == len(topo.neighbors(u))


class TestQuadrantView:
    def test_masks_rows_and_empty_agree(self, small_grid):
        index = quadrant_view(small_grid)
        for q in QUADRANTS:
            for row, u in enumerate(small_grid.node_ids):
                origin = small_grid.position(u)
                members = frozenset(
                    v
                    for v in small_grid.neighbors(u)
                    if quadrant_index(origin, small_grid.position(v)) == q
                )
                rows = index.rows[q - 1][row]
                assert small_grid.nodes_from_mask(index.masks[q - 1][row]) == members
                assert frozenset(small_grid.node_ids[r] for r in rows) == members
                assert bool(index.empty[q - 1][row]) == (not members)

    def test_cached_per_topology(self, small_grid):
        assert quadrant_view(small_grid) is quadrant_view(small_grid)

    def test_coincident_neighbours_rejected(self):
        """Positions are not guaranteed distinct; a shared spot fails loudly."""
        topology = WSNTopology.from_positions(
            [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)], radius=2.0
        )
        message = r"nodes 1 and 2 are neighbours at the same position"
        with pytest.raises(ValueError, match=message):
            quadrant_view(topology)
        with pytest.raises(ValueError, match=message):
            boundary_nodes(topology)
        with pytest.raises(ValueError, match=message):
            build_edge_estimate(topology)
