"""Unit tests for the localized contention scheduler (repro.core.localized)."""

from __future__ import annotations

from repro.core.advance import BroadcastState
from repro.core.coloring import frontier_candidates
from repro.core.estimation import build_edge_estimate
from repro.core.localized import LocalizedEModelPolicy, local_contention_winners
from repro.core.policies import EModelPolicy
from repro.network.interference import conflict_free
from repro.sim.broadcast import run_broadcast
from repro.sim.validation import validate_broadcast


class TestLocalContentionWinners:
    def test_winners_are_interference_free(self, figure1, medium_deployment):
        for topo, source in (figure1, medium_deployment):
            estimate = build_edge_estimate(topo)
            covered = frozenset({source}) | topo.neighbors(source)
            candidates = frontier_candidates(topo, covered)
            winners = local_contention_winners(topo, covered, candidates, estimate)
            assert winners
            assert conflict_free(topo, winners, covered)

    def test_global_best_candidate_always_wins(self, figure1):
        topo, source = figure1
        estimate = build_edge_estimate(topo)
        covered = frozenset({source, 0, 1, 2})
        candidates = frontier_candidates(topo, covered)
        winners = local_contention_winners(topo, covered, candidates, estimate)
        # Node 1 carries the largest edge estimate among the candidates
        # (Section IV-E), so it must be among the winners.
        assert 1 in winners

    def test_non_conflicting_candidates_all_win(self, figure1):
        """Once {3, 4, 10} are covered, nodes 0 and 4 do not conflict and both win."""
        topo, source = figure1
        estimate = build_edge_estimate(topo)
        covered = frozenset({source, 0, 1, 2, 3, 4, 10})
        candidates = frontier_candidates(topo, covered)
        winners = local_contention_winners(topo, covered, candidates, estimate)
        assert {0, 4} <= winners

    def test_empty_candidates_give_empty_winners(self, figure2):
        topo, _ = figure2
        estimate = build_edge_estimate(topo)
        assert (
            local_contention_winners(topo, topo.node_set, [], estimate) == frozenset()
        )


class TestLocalizedEModelPolicy:
    def test_optimal_on_figure1(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, LocalizedEModelPolicy())
        assert result.latency == 3
        assert result.covered == topo.node_set

    def test_valid_on_random_deployments(self, small_deployment, medium_deployment):
        for topo, source in (small_deployment, medium_deployment):
            result = run_broadcast(topo, source, LocalizedEModelPolicy(), validate=False)
            assert result.covered == topo.node_set
            assert validate_broadcast(topo, result) == []
            assert result.latency >= topo.eccentricity(source)

    def test_duty_cycle_operation(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=8)
        result = run_broadcast(
            topo,
            source,
            LocalizedEModelPolicy(),
            schedule=schedule,
            align_start=True,
            validate=False,
        )
        assert result.covered == topo.node_set
        assert validate_broadcast(topo, result, schedule=schedule) == []

    def test_more_parallel_than_centralised_emodel(self, medium_deployment):
        """Local contention fires independent regions concurrently, so it never
        needs more advances-with-transmissions than the one-colour-per-round rule."""
        topo, source = medium_deployment
        localized = run_broadcast(topo, source, LocalizedEModelPolicy())
        centralised = run_broadcast(topo, source, EModelPolicy())
        assert localized.num_advances <= centralised.num_advances
        max_parallel_local = max(len(a.color) for a in localized.advances)
        max_parallel_central = max(len(a.color) for a in centralised.advances)
        assert max_parallel_local >= max_parallel_central

    def test_estimate_prepared_lazily(self, figure2):
        topo, source = figure2
        policy = LocalizedEModelPolicy()
        assert policy.estimate is None
        state = BroadcastState(topo, frozenset({source}), time=1)
        advance = policy.select_advance(state)
        assert advance is not None
        assert policy.estimate is not None

    def test_state_schedule_rebuilds_the_estimate(self, figure2_duty):
        """A policy bound to the synchronous system, handed a duty-cycle
        state, elects with the duty estimate (Eq. 11)."""
        topo, source, schedule = figure2_duty
        policy = LocalizedEModelPolicy()
        policy.prepare(topo, None, source)
        assert policy.estimate.mode == "sync"
        state = BroadcastState(topo, frozenset({1, 2, 3}), time=4, schedule=schedule)
        assert policy.select_advance(state) is not None
        assert policy.estimate.mode == "duty"

    def test_none_when_complete_or_asleep(self, figure2_duty):
        topo, source, schedule = figure2_duty
        policy = LocalizedEModelPolicy()
        policy.prepare(topo, schedule, source)
        complete = BroadcastState(topo, topo.node_set, time=5, schedule=schedule)
        assert policy.select_advance(complete) is None
        asleep = BroadcastState(topo, frozenset({source}), time=3, schedule=schedule)
        assert policy.select_advance(asleep) is None
