"""Unit tests for repro.baselines.bfs_tree."""

from __future__ import annotations

import pytest

from repro.baselines.bfs_tree import build_broadcast_tree, greedy_parent_cover
from repro.network.topology import WSNTopology


class TestGreedyParentCover:
    def test_single_candidate_covers_all(self, figure2):
        topo, _ = figure2
        parents = greedy_parent_cover(topo, {2, 3}, {4, 5})
        assert parents == [2]

    def test_multiple_parents_when_needed(self, figure1):
        topo, source = figure1
        parents = greedy_parent_cover(topo, {0, 1, 2}, {3, 4, 5, 6, 7, 10})
        covered = set()
        for parent in parents:
            covered |= topo.neighbors(parent)
        assert {3, 4, 5, 6, 7, 10} <= covered
        assert set(parents) <= {0, 1, 2}

    def test_greedy_prefers_largest_gain(self, figure1):
        topo, _ = figure1
        parents = greedy_parent_cover(topo, {0, 1, 2}, {3, 4, 5, 6, 7, 10})
        assert parents[0] == 0  # covers four targets, the most

    def test_impossible_cover_raises(self, figure2):
        topo, _ = figure2
        with pytest.raises(ValueError):
            greedy_parent_cover(topo, {5}, {3})


class TestBuildBroadcastTree:
    def test_layers_match_bfs(self, figure1):
        topo, source = figure1
        tree = build_broadcast_tree(topo, source)
        assert tree.layers == tuple(topo.bfs_layers(source))
        assert tree.depth == topo.eccentricity(source)

    def test_every_non_source_node_has_a_parent_one_layer_up(self, figure1):
        topo, source = figure1
        tree = build_broadcast_tree(topo, source)
        distances = topo.hop_distances(source)
        assert set(tree.parent_of) == topo.node_set - {source}
        for child, parent in tree.parent_of.items():
            assert parent in topo.neighbors(child)
            assert distances[parent] == distances[child] - 1

    def test_parents_cover_their_layer(self, medium_deployment):
        topo, source = medium_deployment
        tree = build_broadcast_tree(topo, source)
        for level, parents in enumerate(tree.parents_per_layer):
            if level + 1 >= len(tree.layers):
                assert parents == ()
                continue
            reached = set()
            for parent in parents:
                reached |= topo.neighbors(parent)
            assert set(tree.layers[level + 1]) <= reached

    def test_children_of(self, figure2):
        topo, source = figure2
        tree = build_broadcast_tree(topo, source)
        assert tree.children_of(source) == frozenset({2, 3})
        all_children = set()
        for parent in set(tree.parent_of.values()):
            all_children |= tree.children_of(parent)
        assert all_children == topo.node_set - {source}

    def test_disconnected_topology_rejected(self):
        topo = WSNTopology.from_positions([(0, 0), (1, 0), (30, 30)], radius=2.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_broadcast_tree(topo, 0)
