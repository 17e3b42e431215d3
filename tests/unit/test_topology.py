"""Unit tests for repro.network.topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.deployment import deploy_uniform
from repro.network.quadrant import QuadrantIndex, quadrant_view
from repro.network.topology import Node, WSNTopology
from repro.utils.rng import make_rng
from tests.oracles import edges, networkx_graph


def triangle_with_tail() -> WSNTopology:
    """0-1-2 triangle plus a tail 2-3."""
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 0.8), 3: (0.5, 2.0)}
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    return WSNTopology.from_edges(edges, positions)


class TestNode:
    def test_position_property(self):
        node = Node(node_id=3, x=1.5, y=-2.0)
        assert node.position == (1.5, -2.0)

    def test_ordering_by_id(self):
        assert Node(1, 5, 5) < Node(2, 0, 0)


class TestConstruction:
    def test_from_positions_udg_edges(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]
        topo = WSNTopology.from_positions(positions, radius=1.0)
        assert topo.neighbors(0) == frozenset({1})
        assert topo.neighbors(2) == frozenset()

    def test_udg_radius_inclusive(self):
        topo = WSNTopology.from_positions([(0.0, 0.0), (1.0, 0.0)], radius=1.0)
        assert topo.neighbors(0) == frozenset({1})

    def test_custom_node_ids(self):
        topo = WSNTopology.from_positions(
            [(0.0, 0.0), (0.5, 0.0)], radius=1.0, node_ids=[10, 20]
        )
        assert set(topo.node_ids) == {10, 20}
        assert topo.neighbors(10) == frozenset({20})

    def test_from_edges_symmetry_enforced(self):
        topo = triangle_with_tail()
        for u, v in edges(topo):
            assert u in topo.neighbors(v)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WSNTopology(
                [Node(0, 0, 0), Node(0, 1, 1)],
                {0: set()},
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WSNTopology.from_edges([(0, 0)], {0: (0.0, 0.0)})

    def test_unknown_neighbour_rejected(self):
        with pytest.raises(ValueError):
            WSNTopology([Node(0, 0, 0)], {0: {5}})

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            WSNTopology([Node(0, 0, 0), Node(1, 1, 1)], {0: {1}, 1: set()})

    def test_adjacency_keys_must_be_nodes(self):
        # The one-way edge 99 -> 0 must not be dropped silently.
        with pytest.raises(ValueError, match=r"adjacency lists nodes not in the topology: \[99\]"):
            WSNTopology([Node(0, 0, 0), Node(1, 1, 0)], {0: {1}, 1: {0}, 99: {0}})

    def test_mismatched_node_ids_length(self):
        with pytest.raises(ValueError):
            WSNTopology.from_positions([(0, 0), (1, 1)], radius=1, node_ids=[1])


def _three_ways(num_nodes: int, shuffled: bool):
    """One seeded deployment built by ``from_positions``, the mapping
    constructor and ``from_edges``."""
    deployed, _ = deploy_uniform(num_nodes, seed=num_nodes)
    ids = None
    if shuffled:
        ids = [5 + 3 * int(k) for k in make_rng(num_nodes).permutation(num_nodes)]
    base = WSNTopology.from_positions(deployed.positions, deployed.radius, node_ids=ids)
    mapped = WSNTopology(
        [base.node(u) for u in base.node_ids],
        {u: base.neighbors(u) for u in base.node_ids},
        radius=base.radius,
    )
    edged = WSNTopology.from_edges(
        edges(base), {u: base.position(u) for u in base.node_ids}, radius=base.radius
    )
    return deployed, ids, (base, mapped, edged)


def _quadrant_reads(topology: WSNTopology, monkeypatch) -> list[np.ndarray]:
    """Every adjacency matrix a fresh quadrant index reads while it is built."""
    reads: list[np.ndarray] = []
    adjacency = WSNTopology.adjacency_matrix

    def spy(self: WSNTopology) -> np.ndarray:
        reads.append(adjacency.fget(self))
        return reads[-1]

    with monkeypatch.context() as patch:
        patch.setattr(WSNTopology, "adjacency_matrix", property(spy))
        QuadrantIndex(topology)
    assert reads
    return reads


class TestConstructionPaths:
    """Every construction path yields the same adjacency and derived views."""

    @pytest.mark.parametrize(
        "num_nodes, shuffled", [(50, False), (150, False), (300, False), (150, True)]
    )
    def test_paths_agree(self, num_nodes, shuffled, monkeypatch):
        deployed, ids, topologies = _three_ways(num_nodes, shuffled)
        base = topologies[0]
        if ids is not None:
            # Node ids[i] sits at position i, so sorting the ids permutes
            # the plain deployment's adjacency.
            order = np.argsort(ids)
            np.testing.assert_array_equal(
                base.adjacency_matrix, deployed.adjacency_matrix[np.ix_(order, order)]
            )
            assert base.position(ids[0]) == deployed.position(0)
        else:
            np.testing.assert_array_equal(base.adjacency_matrix, deployed.adjacency_matrix)
        for topology in topologies:
            matrix = topology.adjacency_matrix
            assert matrix.dtype == bool and not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 1] = True
            for read in _quadrant_reads(topology, monkeypatch):
                assert np.shares_memory(matrix, read)
            assert topology.node_ids == base.node_ids
            assert all(topology.neighbors(u) == base.neighbors(u) for u in base.node_ids)
            assert topology.neighbor_masks == base.neighbor_masks
            assert topology.num_edges == base.num_edges
            np.testing.assert_array_equal(matrix, base.adjacency_matrix)
            np.testing.assert_array_equal(topology.hop_matrix, base.hop_matrix)
            assert quadrant_view(topology).masks == quadrant_view(base).masks

    def test_masks_and_sets_read_the_matrix(self):
        _, _, (base, _, _) = _three_ways(50, True)
        ids = base.node_ids
        for i, u in enumerate(ids):
            row = {ids[j] for j in np.flatnonzero(base.adjacency_matrix[i])}
            assert base.neighbors(u) == row
            assert base.nodes_from_mask(base.neighbor_masks[i]) == row

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WSNTopology([Node(0, 0, 0), Node(0, 1, 1)], {0: set()}), "duplicate"),
            (
                lambda: WSNTopology.from_positions([(0, 0), (1, 1)], radius=1, node_ids=[4, 4]),
                "duplicate",
            ),
            (lambda: WSNTopology([Node(0, 0, 0)], {0: {0}}), "listed as its own neighbour"),
            (lambda: WSNTopology.from_edges([(0, 0)], {0: (0.0, 0.0)}), "self-loop on node 0"),
            (
                lambda: WSNTopology([Node(0, 0, 0)], {0: {5}}),
                r"node 0 has neighbours not in the topology: \[5\]",
            ),
            (
                lambda: WSNTopology.from_edges([(0, 5)], {0: (0.0, 0.0)}),
                r"edge \(0, 5\) references a node without a position",
            ),
            (
                lambda: WSNTopology(
                    [Node(0, 0, 0), Node(1, 1, 0), Node(2, 2, 0)],
                    {0: {1, 2}, 1: {0}, 2: set()},
                ),
                "adjacency is not symmetric: 0->2",
            ),
        ],
        ids=[
            "duplicate-mapping",
            "duplicate-positions",
            "self-loop-mapping",
            "self-loop-edges",
            "unknown-mapping",
            "unknown-edges",
            "asymmetric-mapping",
        ],
    )
    def test_errors_fire_on_every_path(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestBasicQueries:
    def test_counts(self):
        topo = triangle_with_tail()
        assert topo.num_nodes == 4
        assert topo.num_edges == 4
        assert len(topo) == 4

    def test_neighbors_and_degree(self):
        topo = triangle_with_tail()
        assert topo.neighbors(2) == frozenset({0, 1, 3})
        assert topo.degree(2) == 3
        assert topo.closed_neighbors(3) == frozenset({2, 3})

    def test_max_and_average_degree(self):
        topo = triangle_with_tail()
        assert topo.max_degree() == 3
        assert topo.average_degree() == pytest.approx((2 + 2 + 3 + 1) / 4)

    def test_membership_and_iteration(self):
        topo = triangle_with_tail()
        assert 0 in topo and 9 not in topo
        assert sorted(topo) == [0, 1, 2, 3]

    def test_positions_read_only(self):
        topo = triangle_with_tail()
        with pytest.raises(ValueError):
            topo.positions[0, 0] = 99.0

    def test_uncovered_neighbors(self):
        topo = triangle_with_tail()
        assert topo.uncovered_neighbors(2, frozenset({0, 1, 2})) == frozenset({3})


class TestGraphQueries:
    def test_hop_distances(self):
        topo = triangle_with_tail()
        distances = topo.hop_distances(3)
        assert distances == {3: 0, 2: 1, 0: 2, 1: 2}

    def test_bfs_layers(self):
        topo = triangle_with_tail()
        layers = topo.bfs_layers(3)
        assert layers[0] == frozenset({3})
        assert layers[1] == frozenset({2})
        assert layers[2] == frozenset({0, 1})

    def test_eccentricity_and_diameter(self):
        topo = triangle_with_tail()
        assert topo.eccentricity(3) == 2
        assert topo.eccentricity(2) == 1
        assert topo.diameter() == 2

    def test_eccentricity_raises_when_disconnected(self):
        topo = WSNTopology.from_positions([(0, 0), (10, 10)], radius=1.0)
        assert not topo.is_connected()
        with pytest.raises(ValueError, match="disconnected"):
            topo.eccentricity(0)

    def test_is_connected(self):
        assert triangle_with_tail().is_connected()

    def test_hop_distance_unknown_source(self):
        with pytest.raises(KeyError):
            triangle_with_tail().hop_distances(42)

    def test_matches_networkx_shortest_paths(self, small_grid):
        nx = pytest.importorskip("networkx")
        graph = networkx_graph(small_grid)
        source = small_grid.node_ids[0]
        expected = nx.single_source_shortest_path_length(graph, source)
        assert small_grid.hop_distances(source) == dict(expected)


class TestMasks:
    def test_neighbor_mask_matches_neighbors(self):
        topo = triangle_with_tail()
        for u in topo.node_ids:
            assert topo.nodes_from_mask(topo.neighbor_mask(u)) == topo.neighbors(u)

    def test_mask_round_trip(self):
        topo = triangle_with_tail()
        subset = frozenset({0, 3})
        assert topo.nodes_from_mask(topo.mask_from_nodes(subset)) == subset

    def test_full_mask_covers_all_nodes(self):
        topo = triangle_with_tail()
        assert topo.nodes_from_mask(topo.full_mask) == topo.node_set
        assert topo.full_mask.bit_count() == topo.num_nodes

    def test_index_of_consistent_with_masks(self):
        topo = triangle_with_tail()
        for u in topo.node_ids:
            assert topo.mask_from_nodes([u]) == 1 << topo.index_of(u)


class TestPositions:
    def test_positions_shape(self):
        topo = triangle_with_tail()
        assert topo.positions.shape == (4, 2)
        assert np.allclose(topo.positions[2], [0.5, 0.8])
