"""Unit tests for repro.network.boundary."""

from __future__ import annotations

import pytest

from repro.network.boundary import boundary_nodes
from repro.network.topology import WSNTopology
from repro.scenarios import generate_scenario, scenario_names
from tests.oracles import grid_deployment, hull_nodes


@pytest.fixture
def dense_grid() -> WSNTopology:
    """A 5x5 8-connected grid: interior nodes have neighbours all around."""
    return grid_deployment(5, 5, spacing=1.0, radius=1.5, jitter=0.0, seed=0)


class TestHullNodes:
    def test_grid_corners_on_hull(self, dense_grid):
        hull = hull_nodes(dense_grid)
        # Corners of the 5x5 grid: ids 0, 4, 20, 24 (row-major layout).
        assert {0, 4, 20, 24} <= hull

    def test_interior_not_on_hull(self, dense_grid):
        hull = hull_nodes(dense_grid)
        assert 12 not in hull  # the centre node

    def test_empty_topology(self):
        topo = WSNTopology([], {})
        assert hull_nodes(topo) == frozenset()
        assert boundary_nodes(topo) == frozenset()


class TestBoundaryNodes:
    def test_contains_hull(self, dense_grid):
        assert hull_nodes(dense_grid) <= boundary_nodes(dense_grid)

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_contains_hull_on_every_scenario(self, scenario):
        """A hull vertex has an empty half-plane, hence an empty quadrant."""
        topology = generate_scenario(scenario, num_nodes=60, seed=3).topology
        hull = hull_nodes(topology)
        assert len(hull) >= 3
        assert hull <= boundary_nodes(topology)

    def test_empty_topology(self):
        assert boundary_nodes(WSNTopology([], {})) == frozenset()

    def test_grid_perimeter_detected(self, dense_grid):
        boundary = boundary_nodes(dense_grid)
        perimeter = {
            u
            for u in dense_grid.node_ids
            if dense_grid.position(u)[0] in (0.0, 4.0)
            or dense_grid.position(u)[1] in (0.0, 4.0)
        }
        assert perimeter <= boundary

    def test_centre_of_dense_grid_is_interior(self, dense_grid):
        assert 12 not in boundary_nodes(dense_grid)

    def test_line_graph_every_node_on_boundary(self, line_topology):
        assert boundary_nodes(line_topology) == line_topology.node_set

    def test_random_deployment_has_interior_and_boundary(self, medium_deployment):
        topo, _ = medium_deployment
        boundary = boundary_nodes(topo)
        assert boundary
        assert boundary != topo.node_set
