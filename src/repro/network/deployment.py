"""Deployment generation: the paper's uniform generator and its data model.

Section V-A: "50~300 nodes, with a communication radius of 10 feet, are
deployed uniformly to cover an interest area of 50 x 50 Sq. Ft., creating
different densities (nodes per Sq. Ft.) ranging from 0.02 to 0.12.  The
source is randomly selected with a distance of 5~8 hops to the farthest
node."

:func:`deploy_uniform` reproduces this generator: it samples node positions
uniformly at random in the square, rejects disconnected deployments, and
picks a source node whose eccentricity falls in the requested hop range
(retrying with fresh positions when no such source exists).

This module also defines the two records shared by every workload:

* :class:`DeploymentConfig` — the geometry knobs (node count, area side,
  communication radius, source-eccentricity window, retry budget); and
* :class:`Deployment` — a generated topology plus its selected source.

The :mod:`repro.scenarios` registry builds non-uniform workloads (clustered
hotspots, corridors, rings, grids with holes, k-nearest-neighbour graphs,
...) on top of exactly these records, so schedulers and simulators never
see anything but a ``Deployment`` regardless of which generator produced
it.  Determinism contract: for a fixed seed every generator in this family
returns bit-identical positions, adjacency and source on every call and in
every process — the parallel sweep runner depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, require

__all__ = [
    "Deployment",
    "DeploymentConfig",
    "DeploymentError",
    "deploy_uniform",
    "grid_deployment",
]


class DeploymentError(RuntimeError):
    """Raised when no deployment satisfying the constraints can be generated."""


@dataclass(frozen=True)
class DeploymentConfig:
    """Parameters of the paper's deployment generator.

    Attributes
    ----------
    num_nodes:
        Number of sensor nodes to place.
    area_side:
        Side length of the square deployment area (feet). Paper: 50.
    radius:
        Communication radius (feet). Paper: 10.
    source_min_ecc, source_max_ecc:
        Acceptable range for the hop distance from the source to the
        farthest node (the paper samples sources with eccentricity 5-8).
        Set ``source_min_ecc=0`` and ``source_max_ecc=None`` to accept any
        source.
    max_attempts:
        Number of full re-deployments attempted before giving up.
    """

    num_nodes: int
    area_side: float = 50.0
    radius: float = 10.0
    source_min_ecc: int = 5
    source_max_ecc: int | None = 8
    max_attempts: int = 200

    def __post_init__(self) -> None:
        require(self.num_nodes >= 2, f"num_nodes must be >= 2, got {self.num_nodes}")
        check_positive("area_side", self.area_side)
        check_positive("radius", self.radius)
        require(self.source_min_ecc >= 0, "source_min_ecc must be >= 0")
        if self.source_max_ecc is not None:
            require(
                self.source_max_ecc >= self.source_min_ecc,
                "source_max_ecc must be >= source_min_ecc",
            )
        require(self.max_attempts >= 1, "max_attempts must be >= 1")

    @property
    def density(self) -> float:
        """Nodes per square foot, the x-axis of the paper's figures."""
        return self.num_nodes / (self.area_side * self.area_side)


@dataclass
class Deployment:
    """A generated deployment: the topology plus the selected source.

    ``scenario`` names the generator that produced it (``"uniform"`` for
    the paper's generator, otherwise a :mod:`repro.scenarios` registry key).
    """

    topology: WSNTopology
    source: int
    config: DeploymentConfig
    attempts: int = field(default=1)
    scenario: str = "uniform"

    @property
    def eccentricity(self) -> int:
        """Hop distance from the source to the farthest node (``d``)."""
        return self.topology.eccentricity(self.source)


def _vetted_deployment(
    config: DeploymentConfig,
    rng: np.random.Generator,
    build: Callable[[], WSNTopology],
    *,
    scenario: str = "uniform",
    failed: str = "failed to generate a deployment",
    advice: str = "relaxing the eccentricity range or density",
) -> Deployment:
    """The vetting loop every deployment generator shares.

    Each attempt draws a topology with ``build`` (which consumes ``rng``),
    rejects it when disconnected or when no node's eccentricity lies in
    ``config``'s source window, and otherwise draws the source uniformly
    from the eligible nodes with the same ``rng``.  After
    ``config.max_attempts`` rejections a :class:`DeploymentError` names
    the last reason, prefixed by ``failed`` and followed by ``advice``.
    """
    last_error = "no attempt made"
    for attempt in range(1, config.max_attempts + 1):
        topology = build()
        if not topology.is_connected():
            last_error = "deployment disconnected"
            continue
        candidates = topology.nodes_with_eccentricity(
            config.source_min_ecc, config.source_max_ecc
        )
        if not candidates:
            last_error = (
                "no node with eccentricity in "
                f"[{config.source_min_ecc}, {config.source_max_ecc}]"
            )
            continue
        source = int(candidates[int(rng.integers(len(candidates)))])
        return Deployment(
            topology=topology,
            source=source,
            config=config,
            attempts=attempt,
            scenario=scenario,
        )
    raise DeploymentError(
        f"{failed} after {config.max_attempts} attempts ({last_error}); "
        f"consider {advice}"
    )


def deploy_uniform(
    num_nodes: int | None = None,
    *,
    config: DeploymentConfig | None = None,
    seed: int | None = None,
    return_deployment: bool = False,
) -> tuple[WSNTopology, int] | Deployment:
    """Generate a connected uniform deployment with a valid source.

    Parameters
    ----------
    num_nodes:
        Shorthand for ``DeploymentConfig(num_nodes=...)`` with paper defaults.
    config:
        Full deployment configuration (overrides ``num_nodes``).
    seed:
        Seed for reproducibility.
    return_deployment:
        When True, return the richer :class:`Deployment` record; otherwise
        return the ``(topology, source)`` pair.

    Raises
    ------
    DeploymentError
        If no connected deployment with an eligible source is found within
        ``config.max_attempts`` attempts.
    """
    if config is None:
        if num_nodes is None:
            raise ValueError("either num_nodes or config must be provided")
        config = DeploymentConfig(num_nodes=num_nodes)
    rng = make_rng(seed)

    def build() -> WSNTopology:
        positions = rng.uniform(0.0, config.area_side, size=(config.num_nodes, 2))
        return WSNTopology.from_positions(positions, radius=config.radius)

    deployment = _vetted_deployment(config, rng, build)
    if return_deployment:
        return deployment
    return deployment.topology, deployment.source


def grid_deployment(
    rows: int,
    cols: int,
    *,
    spacing: float = 1.0,
    radius: float = 1.5,
    jitter: float = 0.0,
    seed: int | None = None,
) -> WSNTopology:
    """A regular grid deployment (used by tests and ablation benchmarks).

    With ``radius`` between ``spacing`` and ``spacing * sqrt(2)`` the grid is
    4-connected; above ``spacing * sqrt(2)`` it becomes 8-connected.  A small
    positional ``jitter`` breaks ties in the quadrant partition.
    """
    require(rows >= 1 and cols >= 1, "rows and cols must be >= 1")
    check_positive("spacing", spacing)
    check_positive("radius", radius)
    rng = make_rng(seed)
    positions = []
    for r in range(rows):
        for c in range(cols):
            dx = dy = 0.0
            if jitter > 0:
                dx, dy = rng.uniform(-jitter, jitter, size=2)
            positions.append((c * spacing + dx, r * spacing + dy))
    return WSNTopology.from_positions(np.asarray(positions), radius=radius)
