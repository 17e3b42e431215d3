"""Unit tests for the multi-source broadcast kernel and its trace/validators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.advance import Advance
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.dutycycle.models import build_wakeup_schedule
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.topology import WSNTopology
from repro.sim.broadcast import ENGINE_BACKENDS, run_broadcast
from repro.sim.engine import RoundEngine
from repro.sim.replay import ReplayPolicy
from repro.sim.metrics import MultiBroadcastMetrics
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.sim.validation import (
    ScheduleViolation,
    assert_valid_multi,
    validate_multi_broadcast,
)


@pytest.fixture
def path5() -> WSNTopology:
    positions = {i: (float(i), 0.0) for i in range(5)}
    edges = [(i, i + 1) for i in range(4)]
    return WSNTopology.from_edges(edges, positions)


class TestRunMulti:
    def test_opposite_wavefronts_complete_on_a_path(self, path5):
        result = run_broadcast(path5, [0, 4], EModelPolicy())
        assert isinstance(result, MultiBroadcastResult)
        assert result.sources == (0, 4)
        assert result.is_complete(path5)
        # Per-message traces are complete single-source traces of their own.
        for message in result.messages:
            assert message.covered == path5.node_set

    def test_contention_defers_but_never_overlaps(self, path5):
        """Wavefronts meeting in the middle must take turns at node 2."""
        result = run_broadcast(path5, [0, 4], EModelPolicy())
        by_time: dict[int, set[int]] = {}
        for message in result.messages:
            for advance in message.advances:
                engaged = set(advance.color) | set(advance.intended)
                previous = by_time.setdefault(advance.time, set())
                assert not (previous & engaged), (
                    f"t={advance.time}: node engaged by two messages"
                )
                previous |= engaged
        # Contention makes the makespan exceed the best per-message latency.
        assert result.latency >= max(
            message.latency for message in result.messages
        )

    def test_makespan_at_least_single_source(self, small_deployment):
        topology, source = small_deployment
        single = run_broadcast(topology, source, EModelPolicy())
        other = max(u for u in topology.node_ids if u != source)
        multi = run_broadcast(topology, [source, other], EModelPolicy())
        assert multi.latency >= single.latency

    def test_policy_sequence_one_per_message(self, path5):
        result = run_broadcast(
            path5, [0, 4], [EModelPolicy(), GreedyOptPolicy()]
        )
        assert result.messages[0].policy_name == "E-model"
        assert result.messages[1].policy_name == "G-OPT"

    def test_policy_count_mismatch_rejected(self, path5):
        with pytest.raises(ValueError, match="one policy per source"):
            run_broadcast(path5, [0, 4], [EModelPolicy()])

    def test_non_policy_rejected(self, path5):
        with pytest.raises(TypeError, match="not a SchedulingPolicy"):
            run_broadcast(path5, [0, 4], [EModelPolicy(), object()])

    def test_duplicate_sources_rejected(self, path5):
        with pytest.raises(ValueError, match="duplicate sources"):
            run_broadcast(path5, [0, 0], EModelPolicy())

    def test_unknown_source_rejected(self, path5):
        with pytest.raises(ValueError, match="unknown source"):
            run_broadcast(path5, [0, 99], EModelPolicy())

    def test_empty_sources_rejected(self, path5):
        with pytest.raises(ValueError, match=">= 1 source"):
            run_broadcast(path5, [], EModelPolicy())

    def test_string_source_rejected_loudly(self, path5):
        # A stray "12" must not explode char-by-char into sources (1, 2).
        with pytest.raises(TypeError, match="node id"):
            run_broadcast(path5, "12", EModelPolicy())

    def test_float_sources_rejected_by_value(self, path5):
        # int() would truncate these into the valid sources 1 and 3.
        with pytest.raises(TypeError, match="1.9"):
            run_broadcast(path5, [1.9, 3.7], EModelPolicy())

    def test_float_scalar_source_rejected_by_value(self, path5):
        with pytest.raises(TypeError, match="2.0"):
            run_broadcast(path5, 2.0, EModelPolicy())

    def test_float_source_rejected_by_the_engine(self, path5):
        with pytest.raises(TypeError, match="integer node id, got 1.0"):
            RoundEngine(path5).run(EModelPolicy(), 1.0)

    def test_numpy_integer_sources_accepted(self, path5):
        single = run_broadcast(path5, np.int64(0), EModelPolicy())
        assert single == run_broadcast(path5, 0, EModelPolicy())
        multi = run_broadcast(path5, np.array([0, 4]), EModelPolicy())
        assert multi.sources == (0, 4)
        assert multi == run_broadcast(path5, [0, 4], EModelPolicy())

    def test_planned_baselines_rejected_for_multi_source(self, path5):
        with pytest.raises(ValueError, match="multi-source"):
            run_broadcast(path5, [0, 4], Approx26Policy())

    def test_planned_duty_baseline_rejected_for_multi_source(self, figure2_duty):
        topology, source, schedule = figure2_duty
        other = max(u for u in topology.node_ids if u != source)
        with pytest.raises(ValueError, match="multi-source"):
            run_broadcast(
                topology, [source, other], Approx17Policy(), schedule=schedule
            )

    def test_duty_multi_aligns_to_earliest_source_slot(self, path5):
        schedule = WakeupSchedule(path5.node_ids, rate=4, seed=3)
        result = run_broadcast(
            path5, [0, 4], EModelPolicy(), schedule=schedule, align_start=True
        )
        expected = min(
            schedule.next_active_slot(0, 1), schedule.next_active_slot(4, 1)
        )
        assert result.start_time == expected
        assert result.is_complete(path5)


@pytest.mark.parametrize("policy_cls", [EModelPolicy, GreedyOptPolicy], ids=["E-model", "G-OPT"])
@pytest.mark.parametrize("system", ["sync", "duty"])
def test_backends_agree_on_multi_source(small_deployment, system, policy_cls):
    """Every engine backend runs ``k = 3`` concurrent messages to the same
    per-message traces."""
    topology, source = small_deployment
    others = sorted(u for u in topology.node_ids if u != source)
    sources = [source, others[0], others[-1]]
    schedule = None
    if system == "duty":
        schedule = build_wakeup_schedule(topology.node_ids, 4, seed=5, model="uniform")
    results = [
        run_broadcast(
            topology, sources, policy_cls(), schedule=schedule, align_start=True, engine=engine
        )
        for engine in sorted(ENGINE_BACKENDS)
    ]
    for result in results:
        assert result.is_complete(topology)
        assert_valid_multi(topology, result, schedule=schedule)
    reference, *others_results = results
    for result in others_results:
        assert [m.advances for m in result.messages] == [m.advances for m in reference.messages]
        assert result.latency == reference.latency


class _CountingReplay(ReplayPolicy):
    """A replay that records every slot it is offered.

    It declares no frontier promise, like the 17-approximation, so only
    its ``next_decision_slot`` hint lets an engine skip a slot.
    """

    def __init__(self, trace: BroadcastResult) -> None:
        super().__init__(trace)
        self.frontier_driven = False
        self.offered: list[int] = []

    def select_advance(self, state):
        self.offered.append(state.time)
        return super().select_advance(state)


class TestMultiSourceHints:
    """The kernel jumps to the earliest slot every spreading message promised."""

    @pytest.fixture
    def recorded(self):
        config = DeploymentConfig(
            num_nodes=30,
            area_side=26.0,
            radius=9.0,
            source_min_ecc=2,
            source_max_ecc=None,
        )
        topology, source = deploy_uniform(config=config, seed=3)
        hops = topology.hop_distances(source)
        other = max(topology.node_ids, key=lambda u: (hops[u], u))
        schedule = build_wakeup_schedule(topology.node_ids, rate=6, seed=11)
        sources = [source, other]
        result = run_broadcast(
            topology, sources, EModelPolicy(), schedule=schedule, align_start=True
        )
        return topology, sources, schedule, result

    @pytest.mark.parametrize("engine", sorted(ENGINE_BACKENDS))
    def test_replays_are_offered_only_at_recorded_slots(self, recorded, engine):
        topology, sources, schedule, result = recorded
        replays = [_CountingReplay(message) for message in result.messages]
        replayed = run_broadcast(
            topology,
            sources,
            replays,
            schedule=schedule,
            align_start=True,
            engine=engine,
        )
        assert replayed == result
        recorded_slots = {
            advance.time for message in result.messages for advance in message.advances
        }
        # Idle slots exist, so offering every (frontier) slot would show.
        assert len(recorded_slots) < result.latency
        for replay in replays:
            assert set(replay.offered) <= recorded_slots
        assert set(replays[0].offered) | set(replays[1].offered) == recorded_slots

    @pytest.mark.parametrize("engine", sorted(ENGINE_BACKENDS))
    def test_one_policy_without_a_promise_blocks_the_jump(self, recorded, engine):
        topology, sources, schedule, result = recorded
        replay = _CountingReplay(result.messages[0])
        replayed = run_broadcast(
            topology,
            sources,
            [replay, EModelPolicy()],
            schedule=schedule,
            align_start=True,
            engine=engine,
        )
        assert replayed == result
        own_slots = {advance.time for advance in result.messages[0].advances}
        assert set(replay.offered) > own_slots


class TestMultiBroadcastResult:
    def _result(self, path5) -> MultiBroadcastResult:
        return run_broadcast(path5, [0, 4], EModelPolicy())

    def test_per_message_latency_and_makespan(self, path5):
        result = self._result(path5)
        assert result.per_message_latency == tuple(
            message.latency for message in result.messages
        )
        assert result.makespan == result.latency == max(
            message.end_time for message in result.messages
        ) - result.start_time + 1

    def test_merged_advances_are_chronological(self, path5):
        result = self._result(path5)
        times = [advance.time for advance in result.advances]
        assert times == sorted(times)
        assert len(result.advances) == result.num_advances

    def test_totals_sum_over_messages(self, path5):
        result = self._result(path5)
        assert result.total_transmissions == sum(
            message.total_transmissions for message in result.messages
        )
        assert result.retransmissions == sum(
            message.retransmissions for message in result.messages
        )
        assert result.failed_deliveries == 0

    def test_message_for(self, path5):
        result = self._result(path5)
        assert result.message_for(4).source == 4
        with pytest.raises(KeyError):
            result.message_for(2)

    def test_metrics_aggregation(self, path5):
        result = self._result(path5)
        metrics = MultiBroadcastMetrics.from_result(path5, result)
        assert metrics.num_messages == 2
        assert metrics.makespan == result.latency
        assert metrics.max_message_latency == max(result.per_message_latency)
        assert metrics.min_message_latency == min(result.per_message_latency)
        assert metrics.mean_message_latency == pytest.approx(
            sum(result.per_message_latency) / 2
        )
        assert len(metrics.per_message) == 2


class TestMultiValidation:
    def test_engine_traces_validate(self, path5):
        result = run_broadcast(path5, [0, 4], EModelPolicy(), validate=False)
        assert validate_multi_broadcast(path5, result) == []
        assert_valid_multi(path5, result)

    def test_overlapping_receivers_rejected(self, path5):
        # Both messages intend node 1 at t=1: individually valid, jointly not.
        a = BroadcastResult(
            policy_name="manual", source=0, start_time=1, end_time=1,
            covered=frozenset({0, 1}),
            advances=(Advance(time=1, color=frozenset({0}), receivers=frozenset({1})),),
        )
        b = BroadcastResult(
            policy_name="manual", source=2, start_time=1, end_time=1,
            covered=frozenset({1, 2, 3}),
            advances=(
                Advance(time=1, color=frozenset({2}), receivers=frozenset({1, 3})),
            ),
        )
        result = MultiBroadcastResult(sources=(0, 2), start_time=1, messages=(a, b))
        violations = validate_multi_broadcast(path5, result, require_complete=False)
        assert any("serve messages" in violation for violation in violations)

    def test_cross_message_collision_rejected(self):
        # Graph: 0-1, 1-2, 1-3, 2-3, 3-4.  Message B covers 1 at t=1 from 2,
        # then transmits from 3 (a neighbour of 1) at t=2 — exactly when
        # message A tries to deliver to 1.  No node serves two messages, but
        # A's receiver is jammed by B's transmitter.
        positions = {i: (float(i), float(i % 2)) for i in range(5)}
        edges = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
        topology = WSNTopology.from_edges(edges, positions)
        a = BroadcastResult(
            policy_name="manual", source=0, start_time=1, end_time=2,
            covered=frozenset({0, 1}),
            advances=(Advance(time=2, color=frozenset({0}), receivers=frozenset({1})),),
        )
        b = BroadcastResult(
            policy_name="manual", source=2, start_time=1, end_time=2,
            covered=frozenset({1, 2, 3, 4}),
            advances=(
                Advance(time=1, color=frozenset({2}), receivers=frozenset({1, 3})),
                Advance(time=2, color=frozenset({3}), receivers=frozenset({4})),
            ),
        )
        result = MultiBroadcastResult(sources=(0, 2), start_time=1, messages=(a, b))
        violations = validate_multi_broadcast(topology, result, require_complete=False)
        assert any("cross-message collision" in violation for violation in violations)

    def test_source_mismatch_rejected(self, path5):
        message = BroadcastResult(
            policy_name="manual", source=1, start_time=1, end_time=0,
            covered=frozenset({1}),
        )
        result = MultiBroadcastResult(sources=(0,), start_time=1, messages=(message,))
        violations = validate_multi_broadcast(path5, result, require_complete=False)
        assert any("does not match" in violation for violation in violations)

    def test_assert_valid_multi_raises_with_details(self, path5):
        message = BroadcastResult(
            policy_name="manual", source=1, start_time=1, end_time=0,
            covered=frozenset({1}),
        )
        result = MultiBroadcastResult(sources=(0,), start_time=1, messages=(message,))
        with pytest.raises(ScheduleViolation, match="multi-source"):
            assert_valid_multi(path5, result, require_complete=False)
