"""WSN topology substrate: unit-disc graphs, deployments, quadrants, boundary."""

from repro.network.boundary import boundary_nodes
from repro.network.deployment import Deployment, DeploymentConfig, deploy_uniform
from repro.network.graphs import (
    figure1_topology,
    figure2_duty_schedule,
    figure2_topology,
)
from repro.network.interference import (
    conflict_free,
    conflicting_pairs,
    has_conflict,
    receivers_of,
)
from repro.network.quadrant import QUADRANTS
from repro.network.sources import SOURCE_PLACEMENTS, placement_names, select_sources
from repro.network.topology import Node, WSNTopology

__all__ = [
    "Deployment",
    "DeploymentConfig",
    "Node",
    "QUADRANTS",
    "SOURCE_PLACEMENTS",
    "WSNTopology",
    "boundary_nodes",
    "conflict_free",
    "conflicting_pairs",
    "deploy_uniform",
    "figure1_topology",
    "figure2_duty_schedule",
    "figure2_topology",
    "has_conflict",
    "placement_names",
    "receivers_of",
    "select_sources",
]
