"""Source vetting from eccentricity bounds against the full hop matrix.

``WSNTopology.nodes_with_eccentricity`` decides each node's membership of
an eccentricity window from a few hop rows and the bounds they imply.  The
oracle here is the definition: the row maxima of a fully built
``hop_matrix``.  Every check runs on a copy of the topology with no hop row
built, and once more on the copy after its matrix is built, when the bounds
read rows that already exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.topology import WSNTopology, _eccentricity_bounds
from repro.scenarios import generate_scenario, scenario_names

from .test_hop_matrix import DISCONNECTED, UNEVEN, fresh

WINDOWS = [(5, 8), (0, None), (3, 4), (9, None)]


def expected_window(topology: WSNTopology, low: int, high: int | None) -> list[int]:
    eccentricities = fresh(topology).hop_matrix.max(axis=1)
    inside = eccentricities >= low
    if high is not None:
        inside &= eccentricities <= high
    return [u for u, ok in zip(topology.node_ids, inside.tolist()) if ok]


def check_windows(topology: WSNTopology, windows) -> None:
    for low, high in windows:
        expected = expected_window(topology, low, high)
        vetted = fresh(topology)
        assert vetted.nodes_with_eccentricity(low, high) == expected, (low, high)
        assert vetted._hop_matrix is None
        assert vetted.hop_matrix is not None
        assert vetted.nodes_with_eccentricity(low, high) == expected, (low, high)


def deployments():
    for name in scenario_names():
        for num_nodes in (50, 120):
            for seed in range(3):
                yield generate_scenario(
                    name, DeploymentConfig(num_nodes=num_nodes), seed=100 * seed + num_nodes
                )


DEPLOYMENTS = list(deployments())


@pytest.mark.parametrize(
    "deployment",
    DEPLOYMENTS,
    ids=lambda d: f"{d.scenario}-n{d.topology.num_nodes}-a{d.attempts}",
)
def test_windows_match_the_row_maxima(deployment):
    topology = deployment.topology
    diameter = fresh(topology).diameter()
    own = (deployment.config.source_min_ecc, deployment.config.source_max_ecc)
    check_windows(topology, [own, *WINDOWS, (diameter, None), (diameter + 1, None)])
    assert fresh(topology).nodes_with_eccentricity(diameter + 1) == []
    assert deployment.source in fresh(topology).nodes_with_eccentricity(*own)


def test_the_scenarios_cover_unbounded_windows():
    windows = {(d.config.source_min_ecc, d.config.source_max_ecc) for d in DEPLOYMENTS}
    assert (5, 8) in windows
    assert {(2, None), (3, None)} <= windows


@pytest.mark.parametrize("topology", UNEVEN[:-2], ids=lambda t: f"n{t.num_nodes}")
def test_windows_on_uneven_graphs(topology):
    check_windows(topology, WINDOWS + [(1, 2), (6, 6), (0, 0)])


def test_an_empty_graph_has_no_eligible_node():
    assert WSNTopology.from_edges([], {}).nodes_with_eccentricity(0) == []
    lone = WSNTopology.from_edges([], {4: (0.0, 0.0)})
    assert lone.nodes_with_eccentricity(0, 0) == [4]
    assert lone.nodes_with_eccentricity(1) == []


def test_bounds_do_not_wrap_on_long_paths():
    # Hop rows of both ends of a path of 30001 nodes, the probes a path's
    # geometric extremes pick: upper bounds reach 2 * 30000, past int16.
    length = 30000
    distance = np.arange(length + 1)
    rows = np.stack([distance, length - distance]).astype(np.int16)
    lower, upper = _eccentricity_bounds(rows)
    np.testing.assert_array_equal(lower, np.maximum(distance, length - distance))
    np.testing.assert_array_equal(upper, np.minimum(length + distance, 2 * length - distance))
    assert (upper >= lower).all()


def prebuilt(monkeypatch) -> None:
    """Make every vetting read a fully built hop matrix first."""
    vet = WSNTopology.nodes_with_eccentricity

    def after_the_matrix(self, low, high=None):
        self.hop_matrix
        return vet(self, low, high)

    monkeypatch.setattr(WSNTopology, "nodes_with_eccentricity", after_the_matrix)


@pytest.mark.parametrize("name", scenario_names())
def test_generate_scenario_draws_as_with_the_matrix_prebuilt(monkeypatch, name):
    draws = [
        generate_scenario(name, DeploymentConfig(num_nodes=n), seed=seed)
        for n in (50, 150)
        for seed in (2012, 99)
    ]
    prebuilt(monkeypatch)
    for deployment, seed in zip(draws, [2012, 99] * 2):
        again = generate_scenario(name, deployment.config, seed=seed)
        assert (again.source, again.attempts) == (deployment.source, deployment.attempts)
        np.testing.assert_array_equal(
            again.topology.positions, deployment.topology.positions
        )


def test_deploy_uniform_draws_as_with_the_matrix_prebuilt(monkeypatch):
    configs = [DeploymentConfig(num_nodes=n) for n in (50, 100, 200, 300)]
    draws = [deploy_uniform(config=c, seed=7, return_deployment=True) for c in configs]
    prebuilt(monkeypatch)
    for config, deployment in zip(configs, draws):
        again = deploy_uniform(config=config, seed=7, return_deployment=True)
        assert (again.source, again.attempts) == (deployment.source, deployment.attempts)


@pytest.mark.parametrize("topology", DISCONNECTED, ids=lambda t: f"n{t.num_nodes}")
def test_disconnected_graphs_raise(topology):
    for window in [(0, None), (5, 8), (100, None)]:
        with pytest.raises(ValueError, match="disconnected"):
            fresh(topology).nodes_with_eccentricity(*window)
    built = fresh(topology)
    assert (built.hop_matrix < 0).any()
    with pytest.raises(ValueError, match="disconnected"):
        built.nodes_with_eccentricity(0)
