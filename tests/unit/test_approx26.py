"""Unit tests for the 26-approximation baseline (repro.baselines.approx26)."""

from __future__ import annotations

import pytest

from repro.baselines.approx26 import Approx26Policy, layer_color_plan
from repro.baselines.bfs_tree import build_broadcast_tree
from repro.core.advance import BroadcastState
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.interference import conflict_free, has_conflict
from repro.sim.broadcast import run_broadcast


class TestLayerColorPlan:
    def test_each_class_is_conflict_free_at_layer_start(self, medium_deployment):
        topo, source = medium_deployment
        tree = build_broadcast_tree(topo, source)
        plan = layer_color_plan(topo, tree)
        covered: set[int] = set()
        for level, classes in enumerate(plan):
            covered |= set(tree.layers[level])
            for color in classes:
                assert conflict_free(topo, color, frozenset(covered))

    def test_classes_partition_layer_parents(self, medium_deployment):
        topo, source = medium_deployment
        tree = build_broadcast_tree(topo, source)
        plan = layer_color_plan(topo, tree)
        for level, classes in enumerate(plan):
            members = [u for color in classes for u in color]
            assert sorted(members) == sorted(tree.parents_per_layer[level])
            assert len(members) == len(set(members))

    def test_last_layer_has_no_classes(self, figure1):
        topo, source = figure1
        tree = build_broadcast_tree(topo, source)
        plan = layer_color_plan(topo, tree)
        assert plan[-1] == []


def _conflict_graph_plan(topology, tree):
    """The layer plan by first-fit over the pairwise conflict graph: the
    oracle the mask packing of :func:`layer_color_plan` must reproduce."""
    plan = []
    covered: set[int] = set()
    for level, layer in enumerate(tree.layers):
        covered |= set(layer)
        parents = sorted(
            tree.parents_per_layer[level], key=lambda u: (-len(tree.children_of(u)), u)
        )
        conflicts = {
            u: {v for v in parents if v != u and has_conflict(topology, u, v, covered)}
            for u in parents
        }
        classes = []
        remaining = parents
        while remaining:
            current: set[int] = set()
            deferred = []
            for u in remaining:
                if conflicts[u] & current:
                    deferred.append(u)
                else:
                    current.add(u)
            classes.append(frozenset(current))
            remaining = deferred
        plan.append(classes)
    return plan


@pytest.mark.parametrize("parent_mode", ["cover", "tree"])
@pytest.mark.parametrize("num_nodes,seed", [(30, 1), (50, 2), (80, 3), (100, 4), (120, 5)])
def test_mask_packing_matches_the_conflict_graph_loop(num_nodes, seed, parent_mode):
    config = DeploymentConfig(
        num_nodes=num_nodes, area_side=50.0, radius=12.0, source_min_ecc=2, source_max_ecc=None
    )
    topo, source = deploy_uniform(config=config, seed=seed)
    tree = build_broadcast_tree(topo, source, parent_mode=parent_mode)
    assert layer_color_plan(topo, tree) == _conflict_graph_plan(topo, tree)


class TestApprox26Policy:
    def test_figure1_latency_is_per_layer_synchronised(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, Approx26Policy())
        # 1 round for the source, 2 colour rounds for layer 1, 1 for layer 2.
        assert result.latency == 4

    def test_latency_equals_total_color_classes(self, medium_deployment):
        topo, source = medium_deployment
        policy = Approx26Policy()
        result = run_broadcast(topo, source, policy)
        assert result.latency == policy.planned_rounds
        assert result.num_advances == policy.planned_rounds

    def test_never_faster_than_pipeline_optimum(self, figure1, figure2, small_deployment):
        from repro.core.policies import GreedyOptPolicy

        for topo, source in (figure1, figure2, small_deployment):
            baseline = run_broadcast(topo, source, Approx26Policy())
            gopt = run_broadcast(topo, source, GreedyOptPolicy())
            assert baseline.latency >= gopt.latency

    def test_requires_prepare(self, figure1):
        topo, source = figure1
        policy = Approx26Policy()
        state = BroadcastState(topo, frozenset({source}), time=1)
        with pytest.raises(RuntimeError, match="prepare"):
            policy.select_advance(state)

    def test_rejects_duty_cycle_schedule(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        with pytest.raises(ValueError, match="round-based"):
            Approx26Policy().prepare(topo, schedule, source)

    def test_schedule_error_points_at_the_solver_registry(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        with pytest.raises(ValueError, match="SOLVER_TIERS"):
            Approx26Policy().prepare(topo, schedule, source)

    def test_none_when_complete(self, figure1):
        topo, source = figure1
        policy = Approx26Policy()
        policy.prepare(topo, None, source)
        state = BroadcastState(topo, topo.node_set, time=1)
        assert policy.select_advance(state) is None

    def test_tree_exposed_after_prepare(self, figure1):
        topo, source = figure1
        policy = Approx26Policy()
        policy.prepare(topo, None, source)
        assert policy.tree is not None
        assert policy.tree.source == source

    def test_line_latency_is_hand_computable(self, line_topology):
        """On the 6-node line each layer is one conflict-free parent, so
        the layered schedule is one round per hop: latency = 5 = optimum."""
        result = run_broadcast(line_topology, 0, Approx26Policy())
        assert result.latency == 5

    def test_star_latency_is_hand_computable(self):
        """One hub transmission covers every leaf: latency = 1 = optimum."""
        from repro.network.topology import WSNTopology

        positions = {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (-1.0, 0.0),
            3: (0.0, 1.0), 4: (0.0, -1.0),
        }
        star = WSNTopology.from_edges([(0, i) for i in range(1, 5)], positions)
        result = run_broadcast(star, 0, Approx26Policy())
        assert result.latency == 1

    def test_latency_within_the_proved_bound(self, small_deployment):
        """The solver catalog's guarantee, measured: latency <= 26 d."""
        topo, source = small_deployment
        result = run_broadcast(topo, source, Approx26Policy())
        depth = max(topo.hop_distances(source).values())
        assert result.latency <= 26 * depth
