"""The built-in scenario builders.

Each builder makes **one attempt** at a topology from the shared
:class:`~repro.network.deployment.DeploymentConfig`; the registry's
rejection loop (connectivity + source eligibility) lives in
:func:`repro.scenarios.registry.generate_scenario`.  All builders draw
every random number from the generator they are handed, so a scenario is a
pure function of ``(config, params, seed)``.

The catalog (parameters, ASCII sketches, and which policy behaviours each
scenario stresses) is documented in ``docs/scenarios.md``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.deployment import DeploymentConfig
from repro.network.geometry import pairwise_distances
from repro.network.topology import WSNTopology
from repro.scenarios.registry import ScenarioSpec, register_scenario
from repro.utils.validation import require

__all__ = [
    "build_uniform",
    "build_clustered",
    "build_corridor",
    "build_ring",
    "build_perturbed_grid",
    "build_grid_holes",
    "build_knn",
]


def _udg(positions: np.ndarray, config: DeploymentConfig) -> WSNTopology:
    """Unit-disc graph over ``positions`` with the config's radius."""
    return WSNTopology.from_positions(positions, radius=config.radius)


# ----------------------------------------------------------------------
# uniform — the paper's Section V-A generator (same stream as deploy_uniform)
# ----------------------------------------------------------------------
def build_uniform(config: DeploymentConfig, rng: np.random.Generator) -> WSNTopology:
    """Positions i.i.d. uniform over the square (the paper's workload)."""
    positions = rng.uniform(0.0, config.area_side, size=(config.num_nodes, 2))
    return _udg(positions, config)


# ----------------------------------------------------------------------
# clustered — Gaussian hotspots bridged by their overlapping tails
# ----------------------------------------------------------------------
def build_clustered(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    clusters: int = 4,
    spread: float = 0.13,
    margin: float = 0.18,
) -> WSNTopology:
    """Nodes split evenly over ``clusters`` Gaussian hotspots.

    Cluster centres are drawn uniformly inside the square inset by
    ``margin * area_side``; each node lands at its cluster centre plus
    isotropic Gaussian noise with standard deviation ``spread * area_side``
    (clipped to the area).  Dense cores connected through sparse bridges
    stress schedulers whose conflict graphs are locally very dense.
    """
    require(clusters >= 1, "clusters must be >= 1")
    require(0.0 < spread, "spread must be positive")
    require(0.0 <= margin < 0.5, "margin must be in [0, 0.5)")
    side = config.area_side
    low, high = margin * side, (1.0 - margin) * side
    centers = rng.uniform(low, high, size=(clusters, 2))
    assignment = rng.integers(clusters, size=config.num_nodes)
    offsets = rng.normal(0.0, spread * side, size=(config.num_nodes, 2))
    positions = np.clip(centers[assignment] + offsets, 0.0, side)
    return _udg(positions, config)


# ----------------------------------------------------------------------
# corridor — a thin horizontal strip (pipeline/road-monitoring topology)
# ----------------------------------------------------------------------
def build_corridor(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    width: float = 0.2,
) -> WSNTopology:
    """Positions uniform over a centred horizontal strip.

    The strip spans the full area side horizontally and ``width *
    area_side`` vertically.  The broadcast degenerates to an almost
    one-dimensional wavefront: latency is dominated by hop depth, making
    the corridor the sharpest test of the per-layer pipelining bounds.
    """
    require(0.0 < width <= 1.0, "width must be in (0, 1]")
    side = config.area_side
    band = width * side
    x = rng.uniform(0.0, side, size=config.num_nodes)
    y = rng.uniform((side - band) / 2.0, (side + band) / 2.0, size=config.num_nodes)
    return _udg(np.column_stack([x, y]), config)


# ----------------------------------------------------------------------
# ring — an annulus around the area centre (two counter-rotating fronts)
# ----------------------------------------------------------------------
def build_ring(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    inner: float = 0.55,
    outer: float = 0.95,
) -> WSNTopology:
    """Positions uniform over an annulus centred in the area.

    ``inner`` and ``outer`` are fractions of ``area_side / 2``.  A source
    on a ring launches two wavefronts that race around opposite arcs and
    collide at the antipode — a worst case for conflict-aware scheduling
    because the colliding fronts interfere exactly where coverage closes.
    """
    require(0.0 < inner < outer <= 1.0, "need 0 < inner < outer <= 1")
    side = config.area_side
    half = side / 2.0
    angles = rng.uniform(0.0, 2.0 * math.pi, size=config.num_nodes)
    # Uniform over the annulus area (not the radius) via inverse transform.
    r2 = rng.uniform((inner * half) ** 2, (outer * half) ** 2, size=config.num_nodes)
    radii = np.sqrt(r2)
    x = half + radii * np.cos(angles)
    y = half + radii * np.sin(angles)
    positions = np.clip(np.column_stack([x, y]), 0.0, side)
    return _udg(positions, config)


# ----------------------------------------------------------------------
# perturbed-grid — a jittered lattice spanning the whole area
# ----------------------------------------------------------------------
def build_perturbed_grid(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    jitter: float = 0.25,
) -> WSNTopology:
    """A near-regular lattice with per-node positional jitter.

    The node count is factored into the most-square ``rows x cols`` lattice
    covering the area; each node is displaced uniformly by up to ``jitter``
    cell widths.  The almost-regular structure produces highly symmetric
    conflict patterns (many simultaneous equal-length schedules), probing
    tie-breaking in the colouring and time-counter search.
    """
    require(0.0 <= jitter <= 0.5, "jitter must be in [0, 0.5]")
    n = config.num_nodes
    side = config.area_side
    rows = max(1, round(math.sqrt(n)))
    cols = math.ceil(n / rows)
    cell_x = side / cols
    cell_y = side / rows
    cells = [(r, c) for r in range(rows) for c in range(cols)][:n]
    base = np.array(
        [((c + 0.5) * cell_x, (r + 0.5) * cell_y) for r, c in cells], dtype=float
    )
    noise = rng.uniform(-jitter, jitter, size=(n, 2)) * np.array([cell_x, cell_y])
    positions = np.clip(base + noise, 0.0, side)
    return _udg(positions, config)


# ----------------------------------------------------------------------
# grid-holes — a jittered lattice with circular obstacles carved out
# ----------------------------------------------------------------------
def build_grid_holes(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    holes: int = 3,
    hole_radius: float = 0.14,
    jitter: float = 0.2,
) -> WSNTopology:
    """A dense jittered lattice with ``holes`` circular voids removed.

    Hole centres are drawn uniformly inside the square inset by one hole
    radius; candidate lattice sites falling inside any hole are discarded
    and ``num_nodes`` survivors are sub-sampled uniformly.  The lattice
    resolution grows until enough survivors exist, so high hole coverage
    still yields the requested node count.  Voids force the wavefront to
    flow *around* obstacles — the irregular-wavefront propagation pattern
    the many-core literature identifies as the hard case.
    """
    require(holes >= 0, "holes must be >= 0")
    require(0.0 < hole_radius < 0.5, "hole_radius must be in (0, 0.5)")
    require(0.0 <= jitter <= 0.5, "jitter must be in [0, 0.5]")
    n = config.num_nodes
    side = config.area_side
    r_hole = hole_radius * side
    inset = min(r_hole, side / 2.0)
    centers = rng.uniform(inset, side - inset, size=(holes, 2)) if holes else np.empty((0, 2))

    resolution = max(2, math.ceil(math.sqrt(n * 1.5)))
    while True:
        cell = side / resolution
        grid = np.arange(resolution, dtype=float) * cell + cell / 2.0
        xs, ys = np.meshgrid(grid, grid)
        candidates = np.column_stack([xs.ravel(), ys.ravel()])
        candidates = candidates + rng.uniform(
            -jitter, jitter, size=candidates.shape
        ) * cell
        candidates = np.clip(candidates, 0.0, side)
        if len(centers):
            deltas = candidates[:, None, :] - centers[None, :, :]
            inside = (np.linalg.norm(deltas, axis=2) < r_hole).any(axis=1)
            candidates = candidates[~inside]
        if len(candidates) >= n:
            chosen = rng.choice(len(candidates), size=n, replace=False)
            return _udg(candidates[np.sort(chosen)], config)
        resolution *= 2


# ----------------------------------------------------------------------
# knn — k-nearest-neighbour connectivity (non-UDG adjacency)
# ----------------------------------------------------------------------
def build_knn(
    config: DeploymentConfig,
    rng: np.random.Generator,
    *,
    k: int = 5,
) -> WSNTopology:
    """Uniform positions with symmetrised k-nearest-neighbour links.

    ``u`` and ``v`` are neighbours iff either is among the other's ``k``
    nearest nodes — a proximity graph rather than a unit-disc graph, so the
    communication radius is ignored.  Degree stays O(k) even in dense
    regions, which models adaptive power control and breaks the UDG
    assumptions behind the 17/26-approximation constants while every
    simulator still runs unchanged.
    """
    require(k >= 1, "k must be >= 1")
    n = config.num_nodes
    require(k < n, f"k must be < num_nodes, got k={k}, num_nodes={n}")
    side = config.area_side
    positions = rng.uniform(0.0, side, size=(n, 2))
    distances = pairwise_distances(positions)
    np.fill_diagonal(distances, np.inf)
    # argsort gives each node's neighbours by increasing distance.
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    edges = set()
    for u in range(n):
        for v in nearest[u]:
            edges.add((min(u, int(v)), max(u, int(v))))
    position_map = {i: (float(positions[i, 0]), float(positions[i, 1])) for i in range(n)}
    return WSNTopology.from_edges(sorted(edges), position_map, radius=None)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="uniform",
        summary="Paper Section V-A: i.i.d. uniform positions over the square",
        builder=build_uniform,
        defaults={},
        inherit_config_window=True,
    )
)
register_scenario(
    ScenarioSpec(
        name="clustered",
        summary="Gaussian hotspots bridged by sparse tails (dense cores)",
        builder=build_clustered,
        defaults={"clusters": 4, "spread": 0.13, "margin": 0.18},
        source_min_ecc=2,
    )
)
register_scenario(
    ScenarioSpec(
        name="corridor",
        summary="Thin horizontal strip: near-1D wavefront (pipeline monitoring)",
        builder=build_corridor,
        defaults={"width": 0.2},
        source_min_ecc=3,
    )
)
register_scenario(
    ScenarioSpec(
        name="ring",
        summary="Annulus around the centre: two fronts colliding at the antipode",
        builder=build_ring,
        defaults={"inner": 0.55, "outer": 0.95},
        source_min_ecc=2,
    )
)
register_scenario(
    ScenarioSpec(
        name="perturbed-grid",
        summary="Jittered lattice spanning the area (symmetric conflicts)",
        builder=build_perturbed_grid,
        defaults={"jitter": 0.25},
        source_min_ecc=2,
    )
)
register_scenario(
    ScenarioSpec(
        name="grid-holes",
        summary="Jittered lattice with circular voids: wavefront flows around obstacles",
        builder=build_grid_holes,
        defaults={"holes": 3, "hole_radius": 0.14, "jitter": 0.2},
        source_min_ecc=2,
    )
)
register_scenario(
    ScenarioSpec(
        name="knn",
        summary="Symmetrised k-nearest-neighbour links (non-UDG, power control)",
        builder=build_knn,
        defaults={"k": 5},
        source_min_ecc=2,
    )
)
