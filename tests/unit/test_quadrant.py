"""Unit tests for repro.network.quadrant."""

from __future__ import annotations

import pytest

from repro.core.estimation import build_edge_estimate
from repro.network.boundary import boundary_nodes
from repro.network.quadrant import (
    QUADRANTS,
    quadrant_index,
    quadrant_neighbors,
    quadrant_partition,
    quadrant_view,
)
from repro.network.topology import WSNTopology


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
        assert quadrant_index((0.0, 0.0), point) == expected

    def test_coincident_point_rejected(self):
        with pytest.raises(ValueError):
            quadrant_index((1.0, 1.0), (1.0, 1.0))

    def test_every_direction_maps_to_exactly_one_quadrant(self):
        import math

        for k in range(32):
            angle = 2 * math.pi * k / 32
            point = (math.cos(angle), math.sin(angle))
            assert quadrant_index((0.0, 0.0), point) in QUADRANTS


class TestQuadrantNeighbors:
    def test_star_assignment(self, star_topology):
        assert quadrant_neighbors(star_topology, 0, 1) == frozenset({1})
        assert quadrant_neighbors(star_topology, 0, 2) == frozenset({2})
        assert quadrant_neighbors(star_topology, 0, 3) == frozenset({3})
        assert quadrant_neighbors(star_topology, 0, 4) == frozenset({4})

    def test_invalid_quadrant_rejected(self, star_topology):
        with pytest.raises(ValueError):
            quadrant_neighbors(star_topology, 0, 5)

    def test_leaf_has_empty_opposite_quadrants(self, star_topology):
        # Node 1 sits in Q1 of the centre, so the centre sits in Q3 of node 1
        # and node 1 has no neighbour in its own Q1.
        assert quadrant_neighbors(star_topology, 1, 1) == frozenset()
        assert quadrant_neighbors(star_topology, 1, 3) == frozenset({0})


class TestQuadrantPartition:
    def test_partition_covers_all_neighbors_disjointly(self, star_topology, small_grid):
        for topo in (star_topology, small_grid):
            for u in topo.node_ids:
                partition = quadrant_partition(topo, u)
                union = frozenset().union(*partition.values())
                assert union == topo.neighbors(u)
                total = sum(len(members) for members in partition.values())
                assert total == len(topo.neighbors(u))

    def test_partition_of_explicit_candidates(self, star_topology):
        partition = quadrant_partition(star_topology, 0, candidates=[1, 3])
        assert partition[1] == frozenset({1})
        assert partition[3] == frozenset({3})
        assert partition[2] == frozenset()
        assert partition[4] == frozenset()

    def test_non_neighbour_candidates_rejected(self, star_topology):
        with pytest.raises(ValueError, match=r"\[2\] are not neighbours of node 1"):
            quadrant_partition(star_topology, 1, candidates=[0, 2])


class TestQuadrantView:
    def test_masks_rows_and_empty_agree(self, small_grid):
        index = quadrant_view(small_grid)
        for q in QUADRANTS:
            for row, u in enumerate(small_grid.node_ids):
                members = quadrant_neighbors(small_grid, u, q)
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
            quadrant_neighbors(topology, 0, 1)
        with pytest.raises(ValueError, match=message):
            boundary_nodes(topology)
        with pytest.raises(ValueError, match=message):
            build_edge_estimate(topology)
