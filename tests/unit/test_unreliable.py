"""Unit tests for broadcasting over unreliable links (repro.sim.unreliable)."""

from __future__ import annotations

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.sim.broadcast import run_broadcast
from repro.sim.unreliable import run_lossy_broadcast


class TestLossFreeEquivalence:
    def test_zero_loss_matches_reliable_engine(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            reliable = run_broadcast(topo, source, EModelPolicy())
            lossy = run_lossy_broadcast(
                topo, source, EModelPolicy(), loss_probability=0.0
            )
            assert lossy.latency == reliable.latency
            assert lossy.covered == reliable.covered
            assert [a.color for a in lossy.advances] == [
                a.color for a in reliable.advances
            ]


class TestLossyBehaviour:
    def test_broadcast_completes_despite_losses(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy_broadcast(
            topo,
            source,
            EModelPolicy(),
            loss_probability=0.3,
            seed=5,
        )
        assert result.covered == topo.node_set

    def test_losses_never_speed_up_coverage(self, small_deployment):
        topo, source = small_deployment
        clean = run_lossy_broadcast(
            topo, source, EModelPolicy(), loss_probability=0.0
        )
        lossy = run_lossy_broadcast(
            topo, source, EModelPolicy(), loss_probability=0.4, seed=3
        )
        assert lossy.latency >= clean.latency

    def test_retransmissions_appear_in_trace(self, small_deployment):
        """With losses a node may transmit again in a later round."""
        topo, source = small_deployment
        result = run_lossy_broadcast(
            topo, source, LargestFirstPolicy(), loss_probability=0.5, seed=11
        )
        counts = result.transmissions_by_node()
        assert any(count > 1 for count in counts.values())

    def test_receivers_subset_of_intended(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy_broadcast(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=7
        )
        covered = {source}
        for advance in result.advances:
            intended = set()
            for u in advance.color:
                intended |= set(topo.neighbors(u))
            intended -= covered
            assert set(advance.receivers) <= intended
            covered |= advance.receivers

    def test_duty_cycle_lossy_broadcast(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=6)
        result = run_lossy_broadcast(
            topo,
            source,
            GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=3)),
            schedule=schedule,
            loss_probability=0.2,
            seed=2,
            align_start=True,
        )
        assert result.covered == topo.node_set
        for advance in result.advances:
            for node in advance.color:
                assert schedule.is_active(node, advance.time)

    def test_invalid_probability_rejected(self, figure2):
        topo, source = figure2
        with pytest.raises(ValueError):
            run_lossy_broadcast(topo, source, EModelPolicy(), loss_probability=1.5)

    def test_deterministic_given_seed(self, small_deployment):
        topo, source = small_deployment
        first = run_lossy_broadcast(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=9
        )
        second = run_lossy_broadcast(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=9
        )
        assert first.latency == second.latency
        assert [a.receivers for a in first.advances] == [
            a.receivers for a in second.advances
        ]
