"""Unit tests for the 17-approximation duty-cycle baseline."""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.core.advance import BroadcastState
from repro.core.policies import GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import run_broadcast


class TestApprox17Policy:
    def test_requires_schedule(self, figure1):
        topo, source = figure1
        with pytest.raises(ValueError, match="duty-cycle"):
            Approx17Policy().prepare(topo, None, source)

    def test_schedule_error_points_at_the_solver_registry(self, figure1):
        topo, source = figure1
        with pytest.raises(ValueError, match="SOLVER_TIERS"):
            Approx17Policy().prepare(topo, None, source)

    def test_requires_prepare_before_use(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=5, seed=0)
        policy = Approx17Policy()
        state = BroadcastState(topo, frozenset({source}), time=1, schedule=schedule)
        with pytest.raises(RuntimeError, match="prepare"):
            policy.select_advance(state)

    def test_completes_and_is_valid(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        result = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule, align_start=True
        )
        assert result.covered == topo.node_set

    def test_transmitters_only_at_their_wakeup_slots(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        result = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule, align_start=True
        )
        for advance in result.advances:
            for node in advance.color:
                assert schedule.is_active(node, advance.time)

    def test_layer_synchronisation_never_pipelines(self, small_deployment, duty_schedule_factory):
        """A node at hop distance h never transmits before every parent of
        layer h-1 has transmitted (the defining property of the baseline)."""
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        policy = Approx17Policy()
        result = run_broadcast(
            topo, source, policy, schedule=schedule, align_start=True
        )
        tree = policy.tree
        assert tree is not None
        first_tx: dict[int, int] = {}
        for advance in result.advances:
            for node in advance.color:
                first_tx.setdefault(node, advance.time)
        last_tx_per_layer: dict[int, int] = {}
        for level, parents in enumerate(tree.parents_per_layer):
            times = [first_tx[p] for p in parents if p in first_tx]
            if times:
                last_tx_per_layer[level] = max(times)
        distances = topo.hop_distances(source)
        for node, time in first_tx.items():
            level = distances[node]
            if level == 0:
                continue
            assert time > last_tx_per_layer.get(level - 1, 0) - 1
            # Strictly: a layer-h parent transmits only after layer h-1 closed.
            assert time >= last_tx_per_layer.get(level - 1, 0)

    def test_slower_than_pipeline_schedulers(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        baseline = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule, align_start=True
        )
        gopt = run_broadcast(
            topo,
            source,
            GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=4)),
            schedule=schedule,
            align_start=True,
        )
        assert baseline.latency >= gopt.latency

    def test_figure2_duty_example(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule, start_time=2
        )
        assert result.covered == topo.node_set
        assert result.end_time >= 4  # can never beat the optimum of Table IV

    def test_line_latency_is_hand_computable(self, line_topology):
        """At rate 1 every node is awake each slot, so the duty-cycle layers
        degenerate to the synchronous ones: one slot per hop on the 6-node
        line, latency = 5 = optimum."""
        schedule = WakeupSchedule(line_topology.node_ids, rate=1, seed=0)
        result = run_broadcast(
            line_topology, 0, Approx17Policy(), schedule=schedule, align_start=True
        )
        assert result.latency == 5

    def test_star_latency_is_hand_computable(self):
        """One always-awake hub transmission covers every leaf: latency 1."""
        from repro.network.topology import WSNTopology

        positions = {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (-1.0, 0.0),
            3: (0.0, 1.0), 4: (0.0, -1.0),
        }
        star = WSNTopology.from_edges([(0, i) for i in range(1, 5)], positions)
        schedule = WakeupSchedule(star.node_ids, rate=1, seed=0)
        result = run_broadcast(
            star, 0, Approx17Policy(), schedule=schedule, align_start=True
        )
        assert result.latency == 1

    def test_latency_within_the_proved_bound(self, small_deployment, duty_schedule_factory):
        """The solver catalog's guarantee, measured: latency <= 17 k d."""
        from repro.dutycycle.cwt import max_cwt

        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        result = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule, align_start=True
        )
        depth = max(topo.hop_distances(source).values())
        assert result.latency <= 17 * max_cwt(10) * depth


class TestNextDecisionSlot:
    """The fast-forward hint's promise: no advance strictly before it."""

    def test_unprepared_policy_makes_no_promise(self, figure1):
        assert Approx17Policy().next_decision_slot(1) is None

    def test_hint_is_first_pending_parent_wakeup(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        policy = Approx17Policy()
        policy.prepare(topo, schedule, source)
        hint = policy.next_decision_slot(1)
        # Right after prepare the only pending layer-0 parent is the source,
        # so the hint is exactly the source's first wake-up slot.
        assert hint == schedule.next_active_slot(source, 1)
        # The promise: select_advance answers None on every slot before the
        # hint (the pending parent is asleep there).
        for slot in range(1, hint):
            state = BroadcastState(
                topo, frozenset({source}), time=slot, schedule=schedule
            )
            assert policy.select_advance(state) is None

    def test_hinted_trace_matches_unhinted_engines(self, small_deployment, duty_schedule_factory):
        """Engines honoring the hint reproduce the reference trace exactly."""
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=10)
        reference = run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule,
            align_start=True, engine="reference",
        )
        assert run_broadcast(
            topo, source, Approx17Policy(), schedule=schedule,
            align_start=True, engine="vectorized",
        ) == reference
