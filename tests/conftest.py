"""Shared fixtures: the paper's example graphs and small reference deployments."""

from __future__ import annotations

import pytest

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.graphs import (
    FIGURE1_SOURCE,
    FIGURE2_SOURCE,
    figure1_topology,
    figure2_duty_schedule,
    figure2_topology,
)
from repro.network.topology import WSNTopology
from tests.oracles import grid_deployment


@pytest.fixture
def figure1():
    """The paper's Figure 1 topology and its source."""
    return figure1_topology(), FIGURE1_SOURCE


@pytest.fixture
def figure2():
    """The paper's Figure 2 topology and its source."""
    return figure2_topology(), FIGURE2_SOURCE


@pytest.fixture
def figure2_duty():
    """Figure 2 with the Table IV wake-up schedule (topology, source, schedule)."""
    return figure2_topology(), FIGURE2_SOURCE, figure2_duty_schedule()


@pytest.fixture
def line_topology() -> WSNTopology:
    """A 6-node line graph (no interference choices, latency = eccentricity)."""
    positions = {i: (float(i), 0.0) for i in range(6)}
    edges = [(i, i + 1) for i in range(5)]
    return WSNTopology.from_edges(edges, positions)


@pytest.fixture
def small_grid() -> WSNTopology:
    """A 4x4 jittered grid, 4-connected."""
    return grid_deployment(4, 4, spacing=1.0, radius=1.1, jitter=0.05, seed=11)


@pytest.fixture
def small_deployment():
    """A small connected random deployment (topology, source)."""
    config = DeploymentConfig(
        num_nodes=30,
        area_side=20.0,
        radius=6.0,
        source_min_ecc=3,
        source_max_ecc=None,
    )
    return deploy_uniform(config=config, seed=7)


@pytest.fixture
def medium_deployment():
    """A paper-style deployment at reduced size (topology, source)."""
    config = DeploymentConfig(
        num_nodes=80,
        area_side=50.0,
        radius=12.0,
        source_min_ecc=4,
        source_max_ecc=None,
    )
    return deploy_uniform(config=config, seed=19)


@pytest.fixture
def duty_schedule_factory():
    """Factory building a wake-up schedule for a topology and rate."""

    def _build(topology: WSNTopology, rate: int, seed: int = 5) -> WakeupSchedule:
        return WakeupSchedule(topology.node_ids, rate=rate, seed=seed)

    return _build
