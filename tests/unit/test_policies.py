"""Unit tests for repro.core.policies (OPT, G-OPT, E-model)."""

from __future__ import annotations

import pytest

from repro.core.advance import BroadcastState
from repro.core.coloring import ColorScheme, greedy_color_classes
from repro.core.policies import (
    EModelPolicy,
    GreedyOptPolicy,
    OptPolicy,
    greedy_decision_classes,
)
from repro.core.time_counter import SearchConfig, TimeCounter
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import receivers_of
from repro.sim.broadcast import run_broadcast
from repro.utils.rng import make_rng
from tests.oracles import grid_deployment


ALL_POLICIES = [OptPolicy, GreedyOptPolicy, EModelPolicy]


class TestSelectionOnFigure1:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_second_advance_selects_node1(self, figure1, policy_cls):
        """All three schedulers make the paper's key decision: launch node 1."""
        topo, source = figure1
        policy = policy_cls()
        policy.prepare(topo, None, source)
        covered = frozenset({source, 0, 1, 2})
        state = BroadcastState(topo, covered, time=2)
        advance = policy.select_advance(state)
        assert advance is not None
        assert advance.color == frozenset({1})
        assert advance.receivers == frozenset({3, 4, 10})
        assert advance.num_colors == 3

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_full_broadcast_is_optimal(self, figure1, policy_cls):
        topo, source = figure1
        result = run_broadcast(topo, source, policy_cls())
        assert result.latency == 3

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_none_when_complete(self, figure1, policy_cls):
        topo, source = figure1
        policy = policy_cls()
        policy.prepare(topo, None, source)
        state = BroadcastState(topo, topo.node_set, time=9)
        assert policy.select_advance(state) is None


class TestTimeCounterPolicies:
    def test_lazy_preparation_from_state(self, figure2):
        topo, source = figure2
        policy = GreedyOptPolicy()
        state = BroadcastState(topo, frozenset({source}), time=1)
        advance = policy.select_advance(state)
        assert advance is not None and advance.color == frozenset({source})
        assert policy.counter is not None

    @pytest.mark.parametrize("policy_cls", [OptPolicy, GreedyOptPolicy])
    def test_state_schedule_rebinds_the_counter(self, figure2_duty, policy_cls):
        """A policy bound to the synchronous system, handed a duty-cycle
        state, decides over that state's awake pool."""
        topo, source, schedule = figure2_duty
        chosen = []
        for slot in range(1, 12):
            policy = policy_cls()
            policy.prepare(topo, None, source)
            state = BroadcastState(topo, frozenset({1, 2, 3}), slot, schedule)
            advance = policy.select_advance(state)
            assert policy.counter.schedule is schedule
            if advance is not None:
                assert all(schedule.is_active(u, slot) for u in advance.color)
                chosen.append(slot)
        assert 4 in chosen

    def test_prepare_rebuilds_on_new_topology(self, figure1, figure2):
        topo1, source1 = figure1
        topo2, source2 = figure2
        policy = GreedyOptPolicy()
        policy.prepare(topo1, None, source1)
        first_counter = policy.counter
        policy.prepare(topo2, None, source2)
        second_counter = policy.counter
        assert second_counter is not first_counter
        policy.prepare(topo2, None, source2)
        # Same topology and schedule: the counter is kept (cache cleared).
        assert policy.counter is second_counter

    def test_search_config_exposed(self):
        config = SearchConfig(mode="beam", beam_width=3)
        policy = GreedyOptPolicy(search=config)
        assert policy.search_config is config

    def test_opt_uses_exhaustive_colors(self, figure1):
        topo, source = figure1
        opt = OptPolicy()
        gopt = GreedyOptPolicy()
        opt.prepare(topo, None, source)
        gopt.prepare(topo, None, source)
        assert opt.name == "OPT"
        assert gopt.name == "G-OPT"
        assert opt.counter.color_scheme == ColorScheme("exhaustive", max_classes=64)
        assert gopt.counter.color_scheme == ColorScheme("greedy")

    def test_opt_never_worse_than_gopt_on_examples(self, figure1, figure2, small_deployment):
        for topo, source in (figure1, figure2, small_deployment):
            opt = run_broadcast(topo, source, OptPolicy())
            gopt = run_broadcast(topo, source, GreedyOptPolicy())
            assert opt.latency <= gopt.latency


class TestEModelPolicy:
    def test_estimate_built_on_prepare(self, figure1):
        topo, source = figure1
        policy = EModelPolicy()
        assert policy.estimate is None
        policy.prepare(topo, None, source)
        assert policy.estimate is not None
        assert policy.estimate.mode == "sync"

    def test_estimate_rebuilt_for_duty_schedule(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        policy = EModelPolicy()
        policy.prepare(topo, None, source)
        sync_estimate = policy.estimate
        policy.prepare(topo, schedule, source)
        assert policy.estimate is not sync_estimate
        assert policy.estimate.mode == "duty"

    def test_unit_weight_option(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        policy = EModelPolicy(weight="unit")
        policy.prepare(topo, schedule, source)
        # Unit weights make duty-cycle values integral hop counts.
        assert policy.estimate.value(1, 1) == 2.0

    def test_returns_none_when_no_awake_candidate(self, figure2_duty):
        topo, source, schedule = figure2_duty
        policy = EModelPolicy()
        policy.prepare(topo, schedule, source)
        state = BroadcastState(topo, frozenset({source}), time=3, schedule=schedule)
        assert policy.select_advance(state) is None

    def test_duty_advance_only_uses_awake_transmitters(self, figure2_duty):
        topo, source, schedule = figure2_duty
        policy = EModelPolicy()
        policy.prepare(topo, schedule, source)
        state = BroadcastState(topo, frozenset({1, 2, 3}), time=4, schedule=schedule)
        advance = policy.select_advance(state)
        assert advance is not None
        assert all(schedule.is_active(u, 4) for u in advance.color)

    def test_state_schedule_rebuilds_the_estimate(self, figure2_duty):
        """A policy bound to the synchronous system, handed a duty-cycle
        state, scores that decision with the duty estimate (Eq. 11)."""
        topo, source, schedule = figure2_duty
        policy = EModelPolicy()
        policy.prepare(topo, None, source)
        assert policy.estimate.mode == "sync"
        state = BroadcastState(topo, frozenset({1, 2, 3}), time=4, schedule=schedule)
        policy.select_advance(state)
        assert policy.estimate.mode == "duty"

    def test_repr_contains_name(self):
        assert "E-model" in repr(EModelPolicy())


class TestGreedyDecisionClasses:
    """The window-read decision pool colours like Algorithm 1 over the awake set."""

    @pytest.mark.parametrize("rate", [1, 4])
    def test_equals_the_awake_set_classes(self, rate):
        topology = grid_deployment(5, 5, spacing=1.0, radius=1.1, seed=3)
        schedule = WakeupSchedule(topology.node_ids, rate, seed=8)
        rng = make_rng(rate)
        ids = list(topology.node_ids)
        for slot in range(1, 40):
            size = int(rng.integers(1, len(ids)))
            covered = frozenset(int(u) for u in rng.choice(ids, size=size, replace=False))
            awake = schedule.awake_nodes(covered, slot)
            state = BroadcastState(topology, covered, slot, schedule)
            pairs = greedy_decision_classes(state)
            assert [topology.nodes_from_mask(color) for color, _ in pairs] == (
                greedy_color_classes(topology, covered, awake)
            )
            for color, receivers in pairs:
                expected = receivers_of(topology, topology.nodes_from_mask(color), covered)
                assert receivers == topology.mask_from_nodes(expected)

    def test_synchronous_pool_is_every_covered_node(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        pairs = greedy_decision_classes(BroadcastState(topo, covered, 2))
        assert [topo.nodes_from_mask(color) for color, _ in pairs] == (
            greedy_color_classes(topo, covered)
        )


class TestDecisionColours:
    """OPT and G-OPT hand the time counter their own scheme's colours."""

    @pytest.mark.parametrize("rate", [None, 4], ids=["sync", "duty-r4"])
    @pytest.mark.parametrize(
        "policy, scheme",
        [
            (OptPolicy, ColorScheme("exhaustive", max_classes=64)),
            (GreedyOptPolicy, ColorScheme("greedy")),
        ],
        ids=["OPT", "G-OPT"],
    )
    def test_decide_gets_the_schemes_classes(
        self, policy, scheme, rate, small_deployment, monkeypatch
    ):
        topology, source = small_deployment
        schedule = None if rate is None else WakeupSchedule(topology.node_ids, rate, seed=5)
        calls = []
        decide = TimeCounter.decide

        def recording(counter, covered, time):
            index = decide(counter, covered, time)
            if index is not None:
                pairs = counter.color_masks_at(covered, time)
                colors = [topology.nodes_from_mask(color) for color, _ in pairs]
                calls.append((topology.nodes_from_mask(covered), time, colors, colors[index]))
            return index

        monkeypatch.setattr(TimeCounter, "decide", recording)
        result = run_broadcast(
            topology,
            source,
            policy(search=SearchConfig(mode="beam")),
            schedule=schedule,
        )
        assert len(calls) == len(result.advances) > 0
        for (covered, time, colors, chosen), advance in zip(calls, result.advances):
            awake = None if schedule is None else schedule.awake_nodes(covered, time)
            assert colors == scheme.color_classes(topology, covered, awake)
            assert (time, chosen) == (advance.time, advance.color)
