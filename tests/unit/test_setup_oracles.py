"""Differential tests: the per-cell set-up layers against set-based oracles.

The BFS parent cover walks the topology's int neighbour masks, the
quadrant index its edge list and the energy accounting the adjacency rows
of the senders.  The oracles below are
the earlier implementations, written over ``frozenset`` neighbourhoods
and dense ``n x n`` offset planes; every output must match them exactly —
dict insertion order included — on random unit-disc graphs of 20-300
nodes and on topologies whose ascending ids are not contiguous (so bit
order and id order are checked to agree).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.bfs_tree import build_broadcast_tree
from repro.core.policies import EModelPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.quadrant import QuadrantIndex, _quadrant_tests
from repro.network.topology import Node, WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.energy import EnergyModel, EnergyReport, energy_of_broadcast

NODE_COUNTS = tuple(int(n) for n in np.linspace(20, 300, 30))


# ----------------------------------------------------------------------
# Reference oracles (frozenset neighbourhoods, dense planes, per event)
# ----------------------------------------------------------------------
def oracle_parent_cover(topology, candidates, targets) -> list[int]:
    remaining = set(targets)
    chosen: list[int] = []
    pool = set(candidates)
    while remaining:
        best, best_gain = None, 0
        for u in sorted(pool):
            gain = len(topology.neighbors(u) & remaining)
            if gain > best_gain:
                best, best_gain = u, gain
        if best is None:
            raise ValueError("greedy parent cover failed")
        chosen.append(best)
        pool.discard(best)
        remaining -= topology.neighbors(best)
    return chosen


def oracle_tree(topology, source, parent_mode):
    """``(layers, parents_per_layer, parent_of)`` built over frozensets."""
    layers = topology.bfs_layers(source)
    parents_per_layer: list[tuple[int, ...]] = []
    parent_of: dict[int, int] = {}
    for level in range(len(layers)):
        if level + 1 >= len(layers):
            parents_per_layer.append(())
            continue
        if parent_mode == "cover":
            parents = oracle_parent_cover(topology, layers[level], layers[level + 1])
            parents_per_layer.append(tuple(parents))
            unassigned = set(layers[level + 1])
            for parent in parents:
                for child in sorted(topology.neighbors(parent) & unassigned):
                    parent_of[child] = parent
                    unassigned.discard(child)
            assert not unassigned
        else:
            chosen: list[int] = []
            for child in sorted(layers[level + 1]):
                parent = min(topology.neighbors(child) & layers[level])
                parent_of[child] = parent
                if parent not in chosen:
                    chosen.append(parent)
            parents_per_layer.append(tuple(sorted(chosen)))
    return tuple(layers), tuple(parents_per_layer), parent_of


def oracle_quadrant_index(topology):
    """``(masks, rows, empty)`` from dense ``dx``/``dy`` planes, one quadrant at a time."""
    adjacency = topology.adjacency_matrix
    positions = topology.positions
    dx = positions[None, :, 0] - positions[:, None, 0]
    dy = positions[None, :, 1] - positions[:, None, 1]
    coincident = np.argwhere(adjacency & (dx == 0.0) & (dy == 0.0))
    if len(coincident):
        ids = topology.node_ids
        u, v = (ids[int(r)] for r in coincident[0])
        raise ValueError(
            f"nodes {u} and {v} are neighbours at the same position; quadrant undefined"
        )
    masks, rows, empty = [], [], []
    for members in _quadrant_tests(dx, dy):
        members &= adjacency
        masks.append(
            tuple(sum(1 << int(c) for c in np.flatnonzero(row)) for row in members)
        )
        rows.append(tuple(tuple(np.flatnonzero(row).tolist()) for row in members))
        empty.append(members.sum(axis=1) == 0)
    return tuple(masks), tuple(rows), tuple(empty)


def oracle_energy(topology, result, model=None) -> EnergyReport:
    """Per-event accounting: one reception per neighbour of every transmission."""
    model = model or EnergyModel()
    per_node = {u: 0.0 for u in topology.node_ids}
    transmissions = receptions = 0
    heard = {u: 0 for u in topology.node_ids}
    for advance in result.advances:
        for transmitter in advance.color:
            transmissions += 1
            per_node[transmitter] += model.tx_cost
            for neighbor in topology.neighbors(transmitter):
                receptions += 1
                per_node[neighbor] += model.rx_cost
                heard[neighbor] += 1
    window = max(result.latency, 0)
    idle_slots = 0
    for node in topology.node_ids:
        idle = max(window - heard[node], 0)
        idle_slots += idle
        per_node[node] += idle * model.idle_cost
    return EnergyReport(model, transmissions, receptions, idle_slots, per_node)


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def _relabelled(topology: WSNTopology, seed: int) -> tuple[WSNTopology, dict[int, int]]:
    """The same graph through the mapping constructor, under sparse shuffled ids.

    Returns the new topology and the old-to-new id mapping.
    """
    rng = np.random.default_rng(seed)
    n = topology.num_nodes
    new_ids = rng.choice(np.arange(3, 7 * n + 3), size=n, replace=False).tolist()
    rename = dict(zip(topology.node_ids, new_ids))
    order = rng.permutation(n).tolist()
    nodes = [
        Node(rename[topology.node_ids[k]], *topology.position(topology.node_ids[k]))
        for k in order
    ]
    adjacency = {
        rename[u]: [rename[v] for v in topology.neighbors(u)]
        for u in (topology.node_ids[k] for k in order)
    }
    relabelled = WSNTopology(nodes, adjacency, radius=topology.radius)
    assert relabelled.node_ids != tuple(range(min(new_ids), min(new_ids) + n))
    return relabelled, rename


@functools.lru_cache(maxsize=None)
def _case(index: int) -> tuple[WSNTopology, int]:
    """Random connected UDG ``index`` (constant density), every third relabelled."""
    n = NODE_COUNTS[index]
    config = DeploymentConfig(
        num_nodes=n,
        area_side=50.0 * math.sqrt(n / 250),
        radius=10.0,
        source_min_ecc=1,
        source_max_ecc=None,
    )
    topology, source = deploy_uniform(config=config, seed=1000 + index)
    if index % 3 == 0:
        topology, rename = _relabelled(topology, seed=index)
        source = rename[source]
    return topology, source


CASES = range(len(NODE_COUNTS))


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
class TestBroadcastTreeOracle:
    @pytest.mark.parametrize("parent_mode", ["cover", "tree"])
    @pytest.mark.parametrize("index", CASES)
    def test_tree_matches_set_oracle(self, index, parent_mode):
        topology, source = _case(index)
        tree = build_broadcast_tree(topology, source, parent_mode=parent_mode)
        layers, parents_per_layer, parent_of = oracle_tree(topology, source, parent_mode)
        assert tree.layers == layers
        assert tree.parents_per_layer == parents_per_layer
        assert list(tree.parent_of.items()) == list(parent_of.items())


class TestQuadrantIndexOracle:
    @pytest.mark.parametrize("index", CASES)
    def test_index_matches_dense_oracle(self, index):
        topology, _ = _case(index)
        index_ = QuadrantIndex(topology)
        masks, rows, empty = oracle_quadrant_index(topology)
        assert index_.masks == masks
        assert index_.rows == rows
        assert len(index_.empty) == 4
        for got, want in zip(index_.empty, empty):
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_coincident_error_names_the_same_pair(self, seed):
        """Positions on a coarse lattice repeat; both builds name one pair."""
        rng = np.random.default_rng(seed)
        n = 40
        positions = rng.integers(0, 6, size=(n, 2)).astype(float)
        ids = rng.choice(np.arange(10, 10 * n), size=n, replace=False).tolist()
        topology = WSNTopology.from_positions(positions, radius=2.0, node_ids=ids)
        with pytest.raises(ValueError) as expected:
            oracle_quadrant_index(topology)
        with pytest.raises(ValueError) as got:
            QuadrantIndex(topology)
        assert str(got.value) == str(expected.value)

    def test_empty_topology(self):
        topology = WSNTopology([], {})
        index_ = QuadrantIndex(topology)
        assert index_.masks == ((), (), (), ())
        assert index_.rows == ((), (), (), ())
        assert [e.shape for e in index_.empty] == [(0,)] * 4


def _traces(topology: WSNTopology, source: int):
    """An E-model sync trace, a 17-approx duty trace and a 2-source trace."""
    schedule = WakeupSchedule(topology.node_ids, rate=10, seed=5)
    other = max(u for u in topology.node_ids if u != source)
    return (
        run_broadcast(topology, source, EModelPolicy(), engine="vectorized"),
        run_broadcast(
            topology, source, Approx17Policy(), schedule=schedule, engine="vectorized"
        ),
        run_broadcast(topology, [source, other], EModelPolicy(), engine="vectorized"),
    )


class TestEnergyOracle:
    @pytest.mark.parametrize("index", CASES)
    def test_default_model_matches_exactly(self, index):
        topology, source = _case(index)
        for trace in _traces(topology, source):
            report = energy_of_broadcast(topology, trace)
            expected = oracle_energy(topology, trace)
            assert report == expected
            assert list(report.per_node.items()) == list(expected.per_node.items())
            assert report.total == expected.total

    @pytest.mark.parametrize("index", CASES[::5])
    def test_non_dyadic_costs_match_approximately(self, index):
        topology, source = _case(index)
        model = EnergyModel(tx_cost=0.1, rx_cost=0.3, idle_cost=0.7)
        for trace in _traces(topology, source):
            report = energy_of_broadcast(topology, trace, model)
            expected = oracle_energy(topology, trace, model)
            assert report.transmissions == expected.transmissions
            assert report.receptions == expected.receptions
            assert report.idle_slots == expected.idle_slots
            assert list(report.per_node) == list(expected.per_node)
            assert report.per_node == pytest.approx(expected.per_node)
