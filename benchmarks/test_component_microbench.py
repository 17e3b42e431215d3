"""Micro-benchmarks of the core primitives (not tied to a paper figure).

These provide regression tracking for the hot paths the figure sweeps rely
on: UDG construction, frontier colouring, E-model construction and a single
G-OPT decision.  They use pytest-benchmark's statistical timing (multiple
rounds) because each operation is cheap enough to repeat.
"""

from __future__ import annotations

import pytest

from repro.core.coloring import greedy_color_classes
from repro.core.estimation import build_edge_estimate
from repro.core.policies import GreedyOptPolicy
from repro.core.time_counter import SearchConfig, TimeCounter
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.topology import WSNTopology


@pytest.fixture(scope="module")
def deployment_200():
    config = DeploymentConfig(num_nodes=200, source_min_ecc=4, source_max_ecc=None)
    return deploy_uniform(config=config, seed=9)


@pytest.fixture(scope="module")
def frontier_state(deployment_200):
    topology, source = deployment_200
    covered = frozenset({source}) | topology.neighbors(source)
    return topology, covered


def test_udg_construction_200_nodes(benchmark, deployment_200):
    topology, _ = deployment_200
    positions = topology.positions.copy()
    result = benchmark(WSNTopology.from_positions, positions, 10.0)
    assert result.num_nodes == 200


def test_greedy_coloring_of_a_frontier(benchmark, frontier_state):
    topology, covered = frontier_state
    classes = benchmark(greedy_color_classes, topology, covered)
    assert classes


def test_emodel_construction_200_nodes(benchmark, deployment_200):
    """Cold build: a fresh topology per round, so the quadrant index is timed too."""
    topology, _ = deployment_200
    positions = topology.positions.copy()

    def fresh_topology():
        return (WSNTopology.from_positions(positions, topology.radius),), {}

    estimate = benchmark.pedantic(
        build_edge_estimate, setup=fresh_topology, rounds=20, iterations=1
    )
    assert estimate.update_count <= 4 * topology.num_nodes


def test_single_gopt_decision(benchmark, frontier_state):
    topology, covered = frontier_state
    counter = TimeCounter(
        topology, config=SearchConfig(mode="beam", beam_width=4)
    )
    covered_mask = topology.mask_from_nodes(covered)
    colors = greedy_color_classes(topology, covered)

    def _decide():
        counter.clear_cache()
        return counter.decide(covered_mask, 2)

    position = benchmark(_decide)
    color, _ = counter.color_masks_at(covered_mask, 2)[position]
    assert topology.nodes_from_mask(color) in colors


def test_full_gopt_broadcast_120_nodes(benchmark):
    from repro.sim.broadcast import run_broadcast

    config = DeploymentConfig(num_nodes=120, source_min_ecc=4, source_max_ecc=None)
    topology, source = deploy_uniform(config=config, seed=31)
    policy = GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=4))

    def _broadcast():
        return run_broadcast(topology, source, policy, validate=False)

    result = benchmark(_broadcast)
    assert result.covered == topology.node_set
