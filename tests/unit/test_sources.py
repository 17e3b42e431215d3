"""Unit tests for the source-placement registry (repro.network.sources)."""

from __future__ import annotations

import pytest

from repro.network.sources import (
    SOURCE_PLACEMENTS,
    placement_names,
    select_sources,
)
from repro.network.topology import WSNTopology
from tests.oracles import grid_deployment


@pytest.fixture
def line6() -> WSNTopology:
    positions = {i: (float(i), 0.0) for i in range(6)}
    edges = [(i, i + 1) for i in range(5)]
    return WSNTopology.from_edges(edges, positions)


@pytest.fixture
def grid() -> WSNTopology:
    return grid_deployment(5, 5, spacing=1.0, radius=1.1, jitter=0.0, seed=7)


class TestRegistry:
    def test_registry_names(self):
        assert placement_names() == sorted(SOURCE_PLACEMENTS)
        assert {"random", "spread", "corner"} == set(placement_names())

    def test_unknown_placement_rejected(self, line6):
        with pytest.raises(ValueError, match="unknown source placement"):
            select_sources(line6, 2, placement="nope")


class TestSelectSources:
    @pytest.mark.parametrize("placement", sorted(SOURCE_PLACEMENTS))
    def test_distinct_and_deterministic(self, grid, placement):
        first = select_sources(grid, 5, placement=placement, seed=11)
        again = select_sources(grid, 5, placement=placement, seed=11)
        assert first == again
        assert len(set(first)) == 5
        assert all(u in grid for u in first)

    def test_random_seed_changes_selection(self, grid):
        a = select_sources(grid, 4, placement="random", seed=1)
        b = select_sources(grid, 4, placement="random", seed=2)
        assert a != b  # astronomically unlikely to collide on 25 nodes

    def test_anchor_always_first(self, grid):
        for placement in sorted(SOURCE_PLACEMENTS):
            sources = select_sources(grid, 3, placement=placement, seed=0, anchor=12)
            assert sources[0] == 12

    def test_spread_maximises_distance_on_a_line(self, line6):
        # Farthest-point traversal from node 0 must pick the far end next.
        sources = select_sources(line6, 2, placement="spread", anchor=0)
        assert sources == (0, 5)
        # k = 3 adds the midpoint region next (hop distance >= 2 from both).
        three = select_sources(line6, 3, placement="spread", anchor=0)
        assert three[2] in (2, 3)

    def test_corner_snaps_to_grid_corners(self, grid):
        sources = select_sources(grid, 4, placement="corner")
        positions = [grid.position(u) for u in sources]
        xs = {round(x) for x, _ in positions}
        ys = {round(y) for _, y in positions}
        # Four corners of a 5x5 grid: extreme coordinates only.
        assert xs <= {0, 4} and ys <= {0, 4}

    def test_single_source_with_anchor_is_identity(self, grid):
        assert select_sources(grid, 1, placement="random", anchor=7) == (7,)

    def test_k_larger_than_network_rejected(self, line6):
        with pytest.raises(ValueError, match="cannot place"):
            select_sources(line6, 7)

    def test_zero_sources_rejected(self, line6):
        with pytest.raises(ValueError, match="at least one source"):
            select_sources(line6, 0)

    def test_unknown_anchor_rejected(self, line6):
        with pytest.raises(ValueError, match="unknown anchor"):
            select_sources(line6, 2, anchor=42)
