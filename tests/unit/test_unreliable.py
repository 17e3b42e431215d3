"""Unit tests for broadcasting over unreliable links.

A lossy run is ``run_broadcast(..., link_model=IndependentLossLinks(p, seed=s))``.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import ENGINE_BACKENDS, run_broadcast
from repro.sim.links import IndependentLossLinks


def run_lossy(topo, source, policy, p, *, seed=0, **kwargs):
    link = IndependentLossLinks(p, seed=seed)
    return run_broadcast(topo, source, policy, link_model=link, **kwargs)


class TestLossFreeEquivalence:
    def test_zero_loss_matches_reliable_engine(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            reliable = run_broadcast(topo, source, EModelPolicy())
            lossy = run_lossy(topo, source, EModelPolicy(), 0.0)
            assert lossy.latency == reliable.latency
            assert lossy.covered == reliable.covered
            assert [a.color for a in lossy.advances] == [
                a.color for a in reliable.advances
            ]


class TestLossyBehaviour:
    def test_broadcast_completes_despite_losses(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy(topo, source, EModelPolicy(), 0.3, seed=5)
        assert result.covered == topo.node_set

    def test_losses_never_speed_up_coverage(self, small_deployment):
        topo, source = small_deployment
        clean = run_lossy(topo, source, EModelPolicy(), 0.0)
        lossy = run_lossy(topo, source, EModelPolicy(), 0.4, seed=3)
        assert lossy.latency >= clean.latency

    def test_retransmissions_appear_in_trace(self, small_deployment):
        """With losses a node may transmit again in a later round."""
        topo, source = small_deployment
        result = run_lossy(topo, source, LargestFirstPolicy(), 0.5, seed=11)
        counts = result.transmissions_by_node()
        assert any(count > 1 for count in counts.values())

    def test_receivers_subset_of_intended(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy(topo, source, EModelPolicy(), 0.3, seed=7)
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
        result = run_lossy(
            topo,
            source,
            GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=3)),
            0.2,
            seed=2,
            schedule=schedule,
            align_start=True,
        )
        assert result.covered == topo.node_set
        for advance in result.advances:
            for node in advance.color:
                assert schedule.is_active(node, advance.time)

    def test_invalid_probability_rejected(self, figure2):
        topo, source = figure2
        with pytest.raises(ValueError):
            run_lossy(topo, source, EModelPolicy(), 1.5)

    def test_deterministic_given_seed(self, small_deployment):
        topo, source = small_deployment
        first = run_lossy(topo, source, EModelPolicy(), 0.3, seed=9)
        second = run_lossy(topo, source, EModelPolicy(), 0.3, seed=9)
        assert first.latency == second.latency
        assert [a.receivers for a in first.advances] == [
            a.receivers for a in second.advances
        ]


def _system(topo, system):
    """No schedule for the round-based system, a rate-5 one for duty."""
    if system == "sync":
        return {}
    schedule = WakeupSchedule(topo.node_ids, rate=5, seed=11)
    return {"schedule": schedule, "align_start": True}


_FRONTIER_POLICIES = {
    "E-model": EModelPolicy,
    "G-OPT": lambda: GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=3)),
    "largest-first": LargestFirstPolicy,
}


class TestLossyRunsAcrossBackends:
    """One front, every backend: a lossy run is the same trace on each."""

    @pytest.mark.parametrize("system", ["sync", "duty"])
    @pytest.mark.parametrize("policy", sorted(_FRONTIER_POLICIES))
    def test_backends_agree_under_losses(self, small_deployment, policy, system):
        topo, source = small_deployment
        make_policy = _FRONTIER_POLICIES[policy]
        traces = [
            run_lossy(
                topo,
                source,
                make_policy(),
                0.25,
                seed=5,
                engine=engine,
                **_system(topo, system),
            )
            for engine in sorted(ENGINE_BACKENDS)
        ]
        assert traces[0].failed_deliveries > 0  # the loss axis is exercised
        assert traces[0].covered == topo.node_set
        for trace in traces[1:]:
            assert trace == traces[0]

    @pytest.mark.parametrize("engine", sorted(ENGINE_BACKENDS))
    def test_a_link_model_carries_no_run_state(self, small_deployment, engine):
        """Reusing one loss model replays the same draws run after run."""
        topo, source = small_deployment
        link = IndependentLossLinks(0.3, seed=4)
        first, second = (
            run_broadcast(topo, source, EModelPolicy(), engine=engine, link_model=link)
            for _ in range(2)
        )
        assert first.failed_deliveries > 0
        assert first == second

    @pytest.mark.parametrize("engine", sorted(ENGINE_BACKENDS))
    @pytest.mark.parametrize("make_policy", [Approx26Policy, Approx17Policy])
    def test_planned_policies_rejected(self, small_deployment, make_policy, engine):
        topo, source = small_deployment
        with pytest.raises(ValueError, match="cannot run over lossy links"):
            run_lossy(topo, source, make_policy(), 0.2, seed=1, engine=engine)

    @pytest.mark.parametrize("engine", sorted(ENGINE_BACKENDS))
    @pytest.mark.parametrize("system", ["sync", "duty"])
    def test_unknown_source_rejected(self, small_deployment, system, engine):
        topo, _ = small_deployment
        with pytest.raises(ValueError, match="unknown source node"):
            run_lossy(
                topo,
                max(topo.node_ids) + 99,
                EModelPolicy(),
                0.2,
                engine=engine,
                **_system(topo, system),
            )
