"""The per-topology hop matrix and the time-counter queries that read it.

The matrix is the one distance index of the program, so it is checked
against an independent implementation (networkx all-pairs shortest paths)
on seeded random unit-disc graphs, connected and disconnected.  The time
counter's lower bound and reachability check are checked against a plain
multi-source BFS kept in this file.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.time_counter import TimeCounter
from repro.network.topology import UNREACHABLE_HOPS, WSNTopology
from repro.utils.rng import make_rng

nx = pytest.importorskip("networkx")


def random_udg(seed: int, num_nodes: int = 40, side: float = 30.0, radius: float = 6.0):
    """A seeded UDG with non-contiguous node ids (often disconnected)."""
    rng = make_rng(seed)
    positions = rng.uniform(0.0, side, size=(num_nodes, 2))
    ids = [3 * i + 7 for i in range(num_nodes)]
    return WSNTopology.from_positions(positions, radius=radius, node_ids=ids)


UDGS = [random_udg(seed, radius=radius) for seed in range(6) for radius in (5.0, 9.0)]
DISCONNECTED = [t for t in UDGS if not t.is_connected()]
CONNECTED = [t for t in UDGS if t.is_connected()]


def bfs_from_set(topology: WSNTopology, covered) -> dict[int, int]:
    """Plain multi-source BFS: hop distance from ``covered`` to each reached node."""
    distance = {u: 0 for u in covered}
    queue = deque(covered)
    while queue:
        u = queue.popleft()
        for v in topology.neighbors(u):
            if v not in distance:
                distance[v] = distance[u] + 1
                queue.append(v)
    return distance


def random_covered_sets(topology: WSNTopology, seed: int, count: int = 25):
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    for _ in range(count):
        size = int(rng.integers(1, len(ids) + 1))
        yield frozenset(int(u) for u in rng.choice(ids, size=size, replace=False))


def test_the_seeded_graphs_cover_both_cases():
    assert DISCONNECTED and CONNECTED
    # The wavefront drops a source's row once it finishes; the uneven graphs
    # finish their sources at very different depths, so surviving rows must
    # still land in their own rows of the matrix.
    assert any(not t.is_connected() for t in UNEVEN)
    for topology in UNEVEN:
        depths = topology.hop_matrix.max(axis=1)
        assert depths.max() - depths.min() >= 1


def from_edge_list(edges, ids, isolated=()) -> WSNTopology:
    """A topology over ``ids`` (plus ``isolated`` nodes) with the given edges."""
    nodes = [*ids, *isolated]
    return WSNTopology.from_edges(edges, {u: (float(u), 0.0) for u in nodes})


def path_joined_to_clique(seed: int) -> WSNTopology:
    """A clique with a long path hanging off one member, ids shuffled."""
    rng = make_rng(seed)
    clique, length = int(rng.integers(4, 9)), int(rng.integers(10, 25))
    ids = [int(u) for u in 2 * rng.permutation(clique + length) + 1]
    edges = [(ids[i], ids[j]) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(ids[i], ids[i + 1]) for i in range(clique - 1, clique + length - 1)]
    return from_edge_list(edges, ids)


def star_of_paths(seed: int, isolated=()) -> WSNTopology:
    """Arms of very different lengths meeting at one hub, ids shuffled."""
    rng = make_rng(seed)
    lengths = [int(k) for k in rng.integers(1, 15, size=int(rng.integers(3, 7)))]
    ids = [int(u) for u in rng.permutation(1 + sum(lengths)) + 10]
    edges, start = [], 1
    for length in lengths:
        arm = [ids[0], *ids[start:start + length]]
        edges += list(zip(arm, arm[1:]))
        start += length
    return from_edge_list(edges, ids, isolated)


UNEVEN = [
    *(path_joined_to_clique(seed) for seed in range(3)),
    *(star_of_paths(seed) for seed in range(3)),
    star_of_paths(7, isolated=(1,)),
    from_edge_list([(0, 1), (1, 2)], [0, 1, 2], isolated=(9,)),
]


def networkx_hops(topology: WSNTopology) -> np.ndarray:
    expected = np.full((topology.num_nodes,) * 2, -1, dtype=np.int16)
    for u, lengths in nx.all_pairs_shortest_path_length(topology.to_networkx()):
        for v, d in lengths.items():
            expected[topology.index_of(u), topology.index_of(v)] = d
    return expected


@pytest.mark.parametrize(
    "topology", UDGS + UNEVEN, ids=lambda t: f"n{t.num_nodes}-m{t.num_edges}"
)
def test_matrix_equals_networkx_all_pairs(topology):
    hops = topology.hop_matrix
    assert hops.shape == (topology.num_nodes, topology.num_nodes)
    assert hops.dtype == np.int16
    np.testing.assert_array_equal(hops, networkx_hops(topology))
    assert (hops == hops.T).all()


@pytest.mark.parametrize("topology", UDGS[:4], ids=lambda t: f"n{t.num_nodes}-m{t.num_edges}")
def test_row_queries_read_the_matrix(topology):
    hops = topology.hop_matrix
    for i, u in enumerate(topology.node_ids):
        row = hops[i]
        distances = topology.hop_distances(u)
        assert distances == {
            v: int(row[j]) for j, v in enumerate(topology.node_ids) if row[j] >= 0
        }
        layers = topology.bfs_layers(u)
        assert layers[0] == {u}
        assert {v: d for d, layer in enumerate(layers) for v in layer} == distances


def test_matrix_is_cached_and_read_only():
    topology = UDGS[0]
    assert topology.hop_matrix is topology.hop_matrix
    with pytest.raises(ValueError):
        topology.hop_matrix[0, 0] = 5


@pytest.mark.parametrize("topology", DISCONNECTED, ids=lambda t: f"n{t.num_nodes}")
def test_disconnected_graphs_keep_their_errors(topology):
    assert (topology.hop_matrix < 0).any()
    with pytest.raises(ValueError, match="disconnected"):
        topology.diameter()
    with pytest.raises(ValueError, match="disconnected"):
        topology.eccentricities()
    for u in topology.node_ids:
        with pytest.raises(ValueError, match="disconnected"):
            topology.eccentricity(u)
        unreachable = topology.nearest_hops(1 << topology.index_of(u)) == UNREACHABLE_HOPS
        assert unreachable.any()


@pytest.mark.parametrize("topology", CONNECTED, ids=lambda t: f"n{t.num_nodes}")
def test_eccentricities_and_diameter(topology):
    graph = topology.to_networkx()
    expected = [nx.eccentricity(graph, u) for u in topology.node_ids]
    assert topology.eccentricities().tolist() == expected
    assert [topology.eccentricity(u) for u in topology.node_ids] == expected
    assert topology.diameter() == nx.diameter(graph)


def test_unknown_source_raises_key_error():
    topology = UDGS[0]
    for query in (topology.hop_distances, topology.bfs_layers, topology.eccentricity):
        with pytest.raises(KeyError):
            query(10_000)


def test_edge_cases():
    lone = WSNTopology.from_edges([], {4: (0.0, 0.0)})
    assert lone.hop_matrix.tolist() == [[0]]
    assert lone.bfs_layers(4) == [frozenset({4})]
    assert lone.diameter() == 0 and lone.is_connected()
    assert WSNTopology.from_edges([], {}).is_connected()


def test_is_connected_on_a_disconnected_graph_builds_no_hop_matrix():
    topology = random_udg(0, radius=5.0)
    assert not topology.is_connected()
    assert topology._hop_matrix is None


@pytest.mark.parametrize("seed", range(8))
def test_is_connected_agrees_with_networkx(seed):
    # Radii around the connectivity threshold of 40 nodes on a 30 x 30 area.
    for radius in (4.0, 6.0, 8.0, 10.0, 12.0):
        topology = random_udg(100 + seed, radius=radius)
        expected = nx.is_connected(topology.to_networkx())
        assert topology.is_connected() == expected  # neighbour-mask BFS
        topology.hop_matrix
        assert topology.is_connected() == expected  # the built matrix's row 0


@pytest.mark.parametrize("topology", UDGS, ids=lambda t: f"n{t.num_nodes}-m{t.num_edges}")
def test_time_counter_queries_match_a_plain_bfs(topology):
    counter = TimeCounter(topology)

    def reachable(covered):
        nearest = topology.nearest_hops(topology.mask_from_nodes(covered))
        return topology.nodes_from_mask(topology.mask_from_bool(nearest != UNREACHABLE_HOPS))

    for seed in range(3):
        for covered in random_covered_sets(topology, seed):
            distance = bfs_from_set(topology, covered)
            assert reachable(covered) == frozenset(distance)
            mask = topology.mask_from_nodes(covered)
            assert counter._hop_lower_bound(mask) == max(distance.values())
    assert reachable(frozenset()) == frozenset()
    assert counter._hop_lower_bound(0) == 0
    assert counter._hop_lower_bound(topology.full_mask) == 0


# ----------------------------------------------------------------------
# Rows on demand: a single-source query builds only its own row
# ----------------------------------------------------------------------
def fresh(topology: WSNTopology) -> WSNTopology:
    """An equal topology with no hop row built yet."""
    return WSNTopology.from_edges(
        topology.edges(), {u: topology.position(u) for u in topology.node_ids}
    )


@pytest.mark.parametrize("topology", UDGS + UNEVEN, ids=lambda t: f"n{t.num_nodes}-m{t.num_edges}")
def test_row_queries_before_the_matrix_agree_with_networkx(topology):
    topology = fresh(topology)
    graph = topology.to_networkx()
    for u in topology.node_ids:
        lengths = nx.single_source_shortest_path_length(graph, u)
        assert topology.hop_distances(u) == lengths
        layers = topology.bfs_layers(u)
        assert {v: d for d, layer in enumerate(layers) for v in layer} == lengths
        if len(lengths) == topology.num_nodes:
            assert topology.eccentricity(u) == nx.eccentricity(graph, u)
        else:
            with pytest.raises(ValueError, match="disconnected"):
                topology.eccentricity(u)
    assert topology._hop_matrix is None


def test_a_duty_emodel_cell_never_builds_the_matrix():
    from repro.baselines.approx17 import Approx17Policy
    from repro.core.policies import EModelPolicy
    from repro.dutycycle.models import build_wakeup_schedule
    from repro.network.deployment import DeploymentConfig
    from repro.scenarios import generate_scenario
    from repro.sim import run_broadcast

    deployment = generate_scenario("uniform", DeploymentConfig(num_nodes=50), seed=2012)
    topology, source = deployment.topology, deployment.source
    schedule = build_wakeup_schedule(topology.node_ids, 10, seed=3)
    for policy in (Approx17Policy(), EModelPolicy()):
        for engine in ("reference", "vectorized"):
            result = run_broadcast(
                topology, source, policy, schedule=schedule, engine=engine, align_start=True
            )
            assert result.covered == topology.node_set
    assert topology._hop_matrix is None
    assert topology._hop_built.sum() < topology.num_nodes


@pytest.mark.parametrize("seed", range(4))
def test_matrix_after_some_rows_equals_a_fresh_build(seed):
    topology = random_udg(200 + seed, radius=[5.0, 9.0][seed % 2])
    rng = make_rng(seed)
    for u in rng.choice(topology.node_ids, size=7, replace=False).tolist():
        topology.eccentricity(u) if topology.is_connected() else topology.hop_distances(u)
    if topology.is_connected():
        topology.nodes_with_eccentricity(3, 6)
    assert topology._hop_matrix is None
    np.testing.assert_array_equal(topology.hop_matrix, fresh(topology).hop_matrix)
    np.testing.assert_array_equal(topology.hop_matrix, networkx_hops(topology))


def test_rows_and_matrix_are_read_only():
    topology = fresh(UDGS[1])
    u = topology.node_ids[3]
    row = topology._hop_row(u)
    with pytest.raises(ValueError):
        row[0] = 5
    matrix = topology.hop_matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 5
    with pytest.raises(ValueError):
        topology._hop_row(u)[0] = 5
    assert topology._hop_row(u).tolist() == matrix[topology.index_of(u)].tolist()
