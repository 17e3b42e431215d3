"""The scenario registry and the built-in deployment generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.deployment import (
    Deployment,
    DeploymentConfig,
    DeploymentError,
    deploy_uniform,
)
from repro.scenarios import (
    SCENARIOS,
    generate_scenario,
    get_scenario,
    list_scenarios,
    scenario_names,
)

REQUIRED = {
    "uniform",
    "clustered",
    "corridor",
    "ring",
    "perturbed-grid",
    "grid-holes",
    "knn",
}


def _adjacency(deployment: Deployment) -> dict[int, frozenset[int]]:
    topology = deployment.topology
    return {u: topology.neighbors(u) for u in topology.node_ids}


class TestRegistry:
    def test_all_required_scenarios_registered(self):
        assert REQUIRED <= set(scenario_names())
        assert len(scenario_names()) >= 6

    def test_specs_have_summaries(self):
        for spec in list_scenarios():
            assert spec.summary
            assert spec.builder is not None

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("moebius-strip")

    def test_generate_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown parameters"):
            generate_scenario("ring", num_nodes=40, seed=0, wobble=3)

    def test_generate_requires_config_or_num_nodes(self):
        with pytest.raises(ValueError, match="num_nodes or config"):
            generate_scenario("ring")

    def test_generate_failure_names_the_scenario(self):
        config = DeploymentConfig(
            num_nodes=2, area_side=5, radius=10, source_min_ecc=5, max_attempts=3
        )
        message = (
            r"scenario 'ring' failed after 3 attempts \(no node with "
            r"eccentricity in \[5, 8\]\); consider relaxing the parameters "
            r"or raising the density"
        )
        with pytest.raises(DeploymentError, match=message):
            generate_scenario(
                "ring", config, seed=0, source_min_ecc=5, source_max_ecc=8
            )

    def test_scenario_names_sorted(self):
        assert scenario_names() == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(REQUIRED))
class TestEveryScenario:
    CONFIG = DeploymentConfig(num_nodes=60)

    def test_returns_connected_deployment(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=1)
        assert isinstance(deployment, Deployment)
        assert deployment.scenario == name
        assert deployment.topology.num_nodes == self.CONFIG.num_nodes
        assert deployment.topology.is_connected()
        assert deployment.source in deployment.topology.node_set

    def test_deterministic_under_fixed_seed(self, name):
        a = generate_scenario(name, self.CONFIG, seed=42)
        b = generate_scenario(name, self.CONFIG, seed=42)
        assert np.array_equal(a.topology.positions, b.topology.positions)
        assert _adjacency(a) == _adjacency(b)
        assert a.source == b.source
        assert a.attempts == b.attempts

    def test_different_seeds_differ(self, name):
        a = generate_scenario(name, self.CONFIG, seed=0)
        b = generate_scenario(name, self.CONFIG, seed=1)
        assert not np.array_equal(a.topology.positions, b.topology.positions)

    def test_source_respects_eccentricity_window(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=3)
        ecc = deployment.topology.eccentricity(deployment.source)
        assert ecc >= deployment.config.source_min_ecc
        if deployment.config.source_max_ecc is not None:
            assert ecc <= deployment.config.source_max_ecc


class TestScenarioGeometry:
    def test_corridor_positions_inside_strip(self):
        config = DeploymentConfig(num_nodes=80)
        deployment = generate_scenario("corridor", config, seed=5, width=0.2)
        positions = deployment.topology.positions
        side = config.area_side
        band = 0.2 * side
        assert positions[:, 1].min() >= (side - band) / 2 - 1e-9
        assert positions[:, 1].max() <= (side + band) / 2 + 1e-9

    def test_ring_positions_inside_annulus(self):
        config = DeploymentConfig(num_nodes=80)
        deployment = generate_scenario("ring", config, seed=5)
        centre = config.area_side / 2
        radii = np.linalg.norm(deployment.topology.positions - centre, axis=1)
        half = config.area_side / 2
        assert radii.min() >= 0.55 * half - 1e-9
        assert radii.max() <= 0.95 * half + 1e-9

    def test_knn_degree_at_least_k(self):
        deployment = generate_scenario("knn", num_nodes=60, seed=2, k=4)
        topology = deployment.topology
        assert min(topology.degree(u) for u in topology.node_ids) >= 4
        # Symmetrised-union degree can exceed k but stays O(k), never O(n).
        assert topology.max_degree() < 4 * 4

    def test_knn_ignores_radius(self):
        deployment = generate_scenario("knn", num_nodes=40, seed=2)
        assert deployment.topology.radius is None

    def test_clustered_respects_cluster_count_param(self):
        a = generate_scenario("clustered", num_nodes=60, seed=9, clusters=2)
        b = generate_scenario("clustered", num_nodes=60, seed=9, clusters=6)
        assert not np.array_equal(a.topology.positions, b.topology.positions)

    def test_perturbed_grid_zero_jitter_is_lattice(self):
        deployment = generate_scenario("perturbed-grid", num_nodes=49, seed=0, jitter=0.0)
        xs = np.unique(np.round(deployment.topology.positions[:, 0], 9))
        assert len(xs) == 7  # 49 nodes factor into a 7x7 lattice

    def test_grid_holes_produces_requested_count_even_with_large_holes(self):
        deployment = generate_scenario(
            "grid-holes", num_nodes=70, seed=4, holes=4, hole_radius=0.2
        )
        assert deployment.topology.num_nodes == 70

    def test_explicit_source_window_override(self):
        deployment = generate_scenario(
            "clustered", num_nodes=60, seed=7, source_min_ecc=1, source_max_ecc=None
        )
        assert deployment.config.source_min_ecc == 1

    def test_uniform_scenario_inherits_config_window(self):
        config = DeploymentConfig(num_nodes=60, source_min_ecc=5, source_max_ecc=8)
        deployment = generate_scenario("uniform", config, seed=1)
        ecc = deployment.topology.eccentricity(deployment.source)
        assert 5 <= ecc <= 8

    @pytest.mark.parametrize("num_nodes", [50, 100, 200, 300])
    def test_uniform_scenario_draws_the_paper_generator_stream(self, num_nodes):
        # The sweep runner deploys every scenario, uniform included, through
        # generate_scenario; uniform records rest on this equality.
        config = DeploymentConfig(num_nodes=num_nodes)
        for seed in range(4):
            deployment = generate_scenario("uniform", config, seed=seed)
            topology, source = deploy_uniform(config=config, seed=seed)
            assert deployment.topology.node_ids == topology.node_ids
            np.testing.assert_array_equal(
                deployment.topology.positions, topology.positions
            )
            assert deployment.source == source
