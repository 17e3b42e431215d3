"""Unit tests for repro.network.deployment."""

from __future__ import annotations

import pytest

from repro.network.deployment import (
    DeploymentConfig,
    DeploymentError,
    _vetted_deployment,
    deploy_uniform,
)
from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng
from tests.oracles import edges, grid_deployment


class TestDeploymentConfig:
    def test_paper_defaults(self):
        config = DeploymentConfig(num_nodes=250)
        assert config.area_side == 50.0
        assert config.radius == 10.0
        assert config.source_min_ecc == 5
        assert config.source_max_ecc == 8

    def test_density_matches_paper_axis(self):
        assert DeploymentConfig(num_nodes=300).density == pytest.approx(0.12)
        assert DeploymentConfig(num_nodes=50).density == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"num_nodes": 10, "area_side": 0},
            {"num_nodes": 10, "radius": -1},
            {"num_nodes": 10, "source_min_ecc": -1},
            {"num_nodes": 10, "source_min_ecc": 5, "source_max_ecc": 3},
            {"num_nodes": 10, "max_attempts": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeploymentConfig(**kwargs)


class TestDeployUniform:
    def test_reproducible_for_same_seed(self):
        config = DeploymentConfig(num_nodes=40, area_side=30, radius=8, source_min_ecc=2, source_max_ecc=None)
        topo_a, source_a = deploy_uniform(config=config, seed=5)
        topo_b, source_b = deploy_uniform(config=config, seed=5)
        assert source_a == source_b
        assert edges(topo_a) == edges(topo_b)

    def test_different_seeds_differ(self):
        config = DeploymentConfig(num_nodes=40, area_side=30, radius=8, source_min_ecc=2, source_max_ecc=None)
        topo_a, _ = deploy_uniform(config=config, seed=1)
        topo_b, _ = deploy_uniform(config=config, seed=2)
        assert edges(topo_a) != edges(topo_b)

    def test_connected_and_in_area(self):
        config = DeploymentConfig(num_nodes=60, area_side=25, radius=7, source_min_ecc=2, source_max_ecc=None)
        topo, _ = deploy_uniform(config=config, seed=3)
        assert topo.is_connected()
        positions = topo.positions
        assert positions.min() >= 0.0
        assert positions.max() <= 25.0

    def test_source_eccentricity_in_range(self):
        config = DeploymentConfig(num_nodes=120, area_side=50, radius=10)
        deployment = deploy_uniform(config=config, seed=9, return_deployment=True)
        assert 5 <= deployment.eccentricity <= 8

    def test_num_nodes_shorthand(self):
        topo, source = deploy_uniform(num_nodes=80, seed=11)
        assert topo.num_nodes == 80
        assert source in topo

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValueError):
            deploy_uniform()

    def test_impossible_constraints_raise_deployment_error(self):
        # Two nodes can never have eccentricity >= 5.
        config = DeploymentConfig(
            num_nodes=2, area_side=5, radius=10, source_min_ecc=5, max_attempts=3
        )
        message = (
            r"failed to generate a deployment after 3 attempts \(no node with "
            r"eccentricity in \[5, 8\]\); consider relaxing the eccentricity "
            r"range or density"
        )
        with pytest.raises(DeploymentError, match=message):
            deploy_uniform(config=config, seed=0)


class TestVettedDeployment:
    """The vetting loop behind ``deploy_uniform`` and ``generate_scenario``."""

    _CONFIG = DeploymentConfig(
        num_nodes=4, area_side=10, radius=1.5, source_min_ecc=1, max_attempts=3
    )

    @staticmethod
    def _line(length: int) -> WSNTopology:
        return WSNTopology.from_positions(
            [(float(i), 0.0) for i in range(length)], radius=1.5
        )

    def test_rejected_builds_count_as_attempts(self):
        disconnected = WSNTopology.from_positions(
            [(0.0, 0.0), (5.0, 0.0), (6.0, 0.0), (9.0, 0.0)], radius=1.5
        )
        builds = iter([disconnected, disconnected, self._line(4)])
        deployment = _vetted_deployment(self._CONFIG, make_rng(0), lambda: next(builds))
        assert deployment.attempts == 3
        assert deployment.scenario == "uniform"
        assert deployment.config == self._CONFIG

    def test_source_is_drawn_after_the_build(self):
        """The source index is the next ``integers`` draw of the shared rng."""
        twin = make_rng(5)
        line = self._line(4)
        deployment = _vetted_deployment(
            self._CONFIG, make_rng(5), lambda: line, scenario="line"
        )
        candidates = line.nodes_with_eccentricity(1, None)
        assert deployment.source == candidates[int(twin.integers(len(candidates)))]
        assert deployment.scenario == "line"

    def test_exhausted_attempts_name_the_last_reason(self):
        disconnected = WSNTopology.from_positions([(0.0, 0.0), (5.0, 0.0)], radius=1.5)
        with pytest.raises(
            DeploymentError,
            match=r"^built nothing after 3 attempts \(deployment disconnected\); "
            r"consider waiting$",
        ):
            _vetted_deployment(
                self._CONFIG,
                make_rng(0),
                lambda: disconnected,
                failed="built nothing",
                advice="waiting",
            )


class TestGridDeployment:
    def test_four_connected_grid(self):
        topo = grid_deployment(3, 4, spacing=1.0, radius=1.1)
        assert topo.num_nodes == 12
        # 4-connected grid edge count: rows*(cols-1) + cols*(rows-1)
        assert topo.num_edges == 3 * 3 + 4 * 2

    def test_eight_connected_with_larger_radius(self):
        topo = grid_deployment(3, 3, spacing=1.0, radius=1.5)
        # Diagonals included.
        assert topo.num_edges == 12 + 8
