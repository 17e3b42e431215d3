"""Unit tests for the vectorized backend: topology kernels, engines, validator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.flooding import FloodingPolicy, LargestFirstPolicy
from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.models import build_wakeup_schedule, duty_model_names
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.interference import (
    conflicting_pairs,
    has_conflict,
    neighborhood_mask,
    receivers_of,
)
from repro.network.quadrant import quadrant_view
from repro.network.topology import UNREACHABLE_HOPS, WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.engine import RoundEngine, SimulationTimeout, SlotEngine
from repro.sim.fast_engine import FastRoundEngine, FastSlotEngine
from repro.sim.replay import ReplayPolicy
from repro.sim.step import check_step
from repro.sim.validation import validate_broadcast
from repro.solvers import ExactPolicy
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def random_deployment():
    config = DeploymentConfig(
        num_nodes=60, area_side=20.0, radius=5.0, source_min_ecc=2, source_max_ecc=None
    )
    return deploy_uniform(config=config, seed=11)


def _random_subsets(topology, seed, count=40):
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    for _ in range(count):
        size = int(rng.integers(1, max(len(ids) // 2, 2)))
        transmitters = frozenset(
            int(u) for u in rng.choice(ids, size=size, replace=False)
        )
        covered_size = int(rng.integers(1, len(ids)))
        covered = frozenset(
            int(u) for u in rng.choice(ids, size=covered_size, replace=False)
        )
        yield transmitters, covered | transmitters


class TestTopologyKernels:
    def test_adjacency_matches_topology(self, random_deployment):
        topology, _ = random_deployment
        adjacency = topology.adjacency_matrix
        for i, u in enumerate(topology.node_ids):
            neighbours = {topology.node_ids[j] for j in np.flatnonzero(adjacency[i])}
            assert neighbours == set(topology.neighbors(u))

    def test_window_is_cached_per_topology(self, random_deployment):
        topology, _ = random_deployment
        schedule = WakeupSchedule(topology.node_ids, rate=3, seed=0)
        other = WSNTopology.from_positions(topology.positions, radius=5.0)
        assert window_for(schedule, topology) is window_for(schedule, topology)
        assert window_for(schedule, other) is not window_for(schedule, topology)

    def test_receivers_and_conflicts_match_reference(self, random_deployment):
        """The mask step check agrees with the set-based predicates."""
        topology, _ = random_deployment
        for transmitters, covered in _random_subsets(topology, seed=5):
            covered_mask = topology.mask_from_nodes(covered)
            expected_receivers = receivers_of(topology, transmitters, covered)
            expected_pairs = conflicting_pairs(topology, transmitters, covered)
            assert bool(expected_pairs) == any(
                has_conflict(topology, u, v, covered)
                for u in transmitters
                for v in transmitters
            )
            advance = Advance(time=1, color=transmitters, receivers=expected_receivers)
            masks = check_step(topology, advance, covered_mask, -1)
            if expected_pairs:
                assert masks is None
                masks = check_step(topology, advance, covered_mask, -1, conflicts=False)
            color, heard, receivers = masks
            assert color == topology.mask_from_nodes(transmitters)
            assert heard == neighborhood_mask(topology, color)
            assert topology.nodes_from_mask(receivers) == expected_receivers

    def test_bfs_matches_reference(self, random_deployment):
        topology, source = random_deployment
        index = topology.index_of(source)
        assert int(topology.nearest_hops(1 << index).max()) == topology.eccentricity(source)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bfs_matches_reference_on_disconnected(self, seed):
        positions = make_rng(seed).uniform(0.0, 40.0, size=(30, 2))
        topology = WSNTopology.from_positions(positions, radius=6.0)
        assert not topology.is_connected()
        for i, u in enumerate(topology.node_ids):
            reference = topology.hop_distances(u)
            distances = topology.nearest_hops(1 << i)
            for j, v in enumerate(topology.node_ids):
                expected = reference.get(v)
                if expected is None:
                    assert distances[j] == UNREACHABLE_HOPS
                else:
                    assert distances[j] == expected
            for radius in (0, 1, 3):
                ball = topology.nodes_from_mask(topology.ball_mask(i, radius))
                assert ball == {v for v, d in reference.items() if d <= radius}

    def test_eccentricity_raises_on_disconnected(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (9.0, 9.0)}
        topology = WSNTopology.from_edges([(0, 1)], positions)
        assert topology.nearest_hops(1)[2] == UNREACHABLE_HOPS
        with pytest.raises(ValueError, match="disconnected"):
            topology.eccentricity(0)

    def test_mask_from_nodes_rejects_unknown_nodes(self, random_deployment):
        topology, _ = random_deployment
        with pytest.raises(KeyError):
            topology.mask_from_nodes(frozenset(range(10_000, 10_040)))
        with pytest.raises(KeyError):
            topology.mask_from_nodes([10_000])

    def test_caches_release_collected_keys(self):
        """The weak caches must not pin their keys (no index/window leak)."""
        import gc
        import weakref

        topology = _line_topology(6)
        schedule = WakeupSchedule(topology.node_ids, rate=3, seed=0)
        window_for(schedule, topology).awake_mask(1)
        quadrant_view(topology)
        topology_ref = weakref.ref(topology)
        schedule_ref = weakref.ref(schedule)
        del topology, schedule
        gc.collect()
        assert topology_ref() is None, "a per-topology cache leaked its topology"
        assert schedule_ref() is None, "activity-window cache leaked its schedule"


class TestActivityWindow:
    def test_activity_window_matches_is_active(self):
        schedule = WakeupSchedule(range(8), rate=4, seed=3)
        node_ids = list(range(8))
        window = schedule.activity_window(node_ids, 5, 40)
        for row, node in enumerate(node_ids):
            for slot in range(5, 41):
                assert window[row, slot - 5] == schedule.is_active(node, slot)

    def test_activity_window_empty_and_validation(self):
        schedule = WakeupSchedule(range(3), rate=2, seed=0)
        assert schedule.activity_window([0, 1], 5, 4).shape == (2, 0)
        with pytest.raises(ValueError):
            schedule.activity_window([0], 0, 10)


class _BadAdvancePolicy(SchedulingPolicy):
    """Emits a deliberately invalid advance to exercise engine checks."""

    name = "bad"

    def __init__(self, mutate):
        self._mutate = mutate

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        good = LargestFirstPolicy().select_advance(state)
        if good is None:
            return None
        return self._mutate(state, good)


def _line_topology(n=7):
    positions = {i: (float(i), 0.0) for i in range(n)}
    return WSNTopology.from_edges([(i, i + 1) for i in range(n - 1)], positions)


class TestFastEngineChecks:
    @pytest.mark.parametrize("engine_cls", [RoundEngine, FastRoundEngine])
    def test_rejects_uncovered_transmitters(self, engine_cls):
        topology = _line_topology()

        def mutate(state, advance):
            outsider = max(state.uncovered)
            return Advance(
                time=advance.time,
                color=advance.color | {outsider},
                receivers=advance.receivers,
            )

        with pytest.raises(ValueError, match="do not hold the message"):
            engine_cls(topology).run(_BadAdvancePolicy(mutate), 0)

    @pytest.mark.parametrize("engine_cls", [RoundEngine, FastRoundEngine])
    def test_rejects_wrong_receivers(self, engine_cls):
        topology = _line_topology()

        def mutate(state, advance):
            return Advance(
                time=advance.time, color=advance.color, receivers=frozenset()
            )

        with pytest.raises(ValueError, match="advance.receivers does not match"):
            engine_cls(topology).run(_BadAdvancePolicy(mutate), 0)

    @pytest.mark.parametrize("engine_cls", [RoundEngine, FastRoundEngine])
    def test_rejects_unknown_receivers_with_same_error(self, engine_cls):
        # Receivers naming a node outside the topology must raise the same
        # ValueError on both backends, not a bare KeyError.
        topology = _line_topology()

        def mutate(state, advance):
            return Advance(
                time=advance.time,
                color=advance.color,
                receivers=advance.receivers | {987_654},
            )

        with pytest.raises(ValueError, match="advance.receivers does not match"):
            engine_cls(topology).run(_BadAdvancePolicy(mutate), 0)

    @pytest.mark.parametrize("engine_cls", [RoundEngine, FastRoundEngine])
    def test_rejects_conflicting_transmitters(self, engine_cls):
        # Diamond 0-{1,2}-3: after the source covers 1 and 2, those two share
        # the uncovered neighbour 3, so transmitting together must be rejected.
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (1.0, -1.0), 3: (2.0, 0.0)}
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        topology = WSNTopology.from_edges(edges, positions)

        class Conflicting(SchedulingPolicy):
            name = "conflicting"

            def select_advance(self, state):
                if state.time == 1:
                    return Advance.from_color(
                        state.topology, state.covered, frozenset({0}), 1
                    )
                if state.time == 2:
                    covered = state.covered
                    return Advance(
                        time=2,
                        color=frozenset({1, 2}),
                        receivers=receivers_of(state.topology, {1, 2}, covered),
                    )
                return None

        with pytest.raises(ValueError, match="conflicting transmitters"):
            engine_cls(topology).run(Conflicting(), 0)

    @pytest.mark.parametrize("engine_cls", [SlotEngine, FastSlotEngine])
    def test_rejects_sleeping_transmitters(self, engine_cls):
        topology = _line_topology(4)
        schedule = WakeupSchedule.from_explicit(
            {0: [3], 1: [5], 2: [7], 3: [9]}, rate=2
        )

        class SleepTalker(SchedulingPolicy):
            name = "sleep-talker"
            frontier_driven = False

            def select_advance(self, state):
                if state.time == 1:
                    return Advance.from_color(
                        state.topology, state.covered, frozenset({0}), 1
                    )
                return None

        with pytest.raises(ValueError, match="sleeping transmitters"):
            engine_cls(topology, schedule).run(SleepTalker(), 0)

    @pytest.mark.parametrize("engine_cls", [SlotEngine, FastSlotEngine])
    def test_timeout_messages_match(self, engine_cls):
        topology = _line_topology(4)
        schedule = WakeupSchedule(topology.node_ids, rate=3, seed=1)

        class Mute(SchedulingPolicy):
            name = "mute"

            def select_advance(self, state):
                return None

        with pytest.raises(SimulationTimeout, match="did not complete by time"):
            engine_cls(topology, schedule).run(Mute(), 0, max_time=9)

    def test_missing_schedule_nodes_rejected(self):
        topology = _line_topology(5)
        schedule = WakeupSchedule([0, 1, 2], rate=2, seed=0)
        with pytest.raises(ValueError, match="missing nodes"):
            FastSlotEngine(topology, schedule)
        with pytest.raises(ValueError, match="missing nodes"):
            SlotEngine(topology, schedule)


class TestEngineParityFixtures:
    def test_round_parity_on_fixture_graphs(self, figure1, small_grid):
        for topology, source in [figure1, (small_grid, small_grid.node_ids[0])]:
            a = run_broadcast(topology, source, LargestFirstPolicy(), engine="reference")
            b = run_broadcast(topology, source, LargestFirstPolicy(), engine="vectorized")
            assert a == b

    def test_duty_parity_on_figure2(self, figure2_duty):
        topology, source, schedule = figure2_duty
        a = run_broadcast(
            topology, source, LargestFirstPolicy(), schedule=schedule,
            align_start=True, engine="reference",
        )
        b = run_broadcast(
            topology, source, LargestFirstPolicy(), schedule=schedule,
            align_start=True, engine="vectorized",
        )
        assert a == b

    def test_flooding_parity_without_conflict_checks(self, small_grid):
        source = small_grid.node_ids[0]
        a = run_broadcast(
            small_grid, source, FloodingPolicy(), validate=False, engine="reference"
        )
        b = run_broadcast(
            small_grid, source, FloodingPolicy(), validate=False, engine="vectorized"
        )
        assert a == b

    def test_replay_hint_fast_forwards(self, random_deployment):
        """Both engines honour ``next_decision_slot``: the hint prunes
        decisions without changing the trace."""
        topology, source = random_deployment
        schedule = WakeupSchedule(topology.node_ids, rate=6, seed=9)
        trace = run_broadcast(
            topology, source, LargestFirstPolicy(), schedule=schedule, align_start=True
        )

        # Both variants opt out of the frontier idle-slot skip, so the hint
        # is the only pruning mechanism under test.
        class CountingReplay(ReplayPolicy):
            def __init__(self, trace):
                super().__init__(trace)
                self.frontier_driven = False
                self.calls = 0

            def select_advance(self, state):
                self.calls += 1
                return super().select_advance(state)

        class UnhintedReplay(CountingReplay):
            def next_decision_slot(self, time):
                return None

        for engine in ("reference", "vectorized"):
            hinted, unhinted = CountingReplay(trace), UnhintedReplay(trace)
            for policy in (hinted, unhinted):
                replayed = run_broadcast(
                    topology,
                    source,
                    policy,
                    schedule=schedule,
                    start_time=trace.start_time,
                    engine=engine,
                )
                assert replayed == trace
            # The replay knows its transmission slots exactly, so the hinted
            # run is decided once per advance; the unhinted one is offered
            # every slot.
            assert hinted.calls == trace.num_advances, engine
            assert unhinted.calls > hinted.calls, engine

    def test_replay_rejects_two_advances_in_one_slot(self, random_deployment):
        """The replay index holds one advance per slot; a trace with two at
        the same time is refused when the replay is built."""
        import dataclasses

        topology, source = random_deployment
        trace = run_broadcast(topology, source, LargestFirstPolicy())
        first = trace.advances[0]
        doubled = dataclasses.replace(trace, advances=(first, *trace.advances))
        with pytest.raises(ValueError, match="two advances at the same time"):
            ReplayPolicy(doubled)


def _decision_counting(policy_cls, *, hinted):
    """``policy_cls`` counting its decisions, with or without its hint.

    Both variants opt out of the frontier idle-slot skip, so the hint is
    the only pruning mechanism under test.
    """

    class Counting(policy_cls):
        frontier_driven = False
        calls = 0

        def select_advance(self, state):
            self.calls += 1
            return super().select_advance(state)

        if not hinted:

            def next_decision_slot(self, time):
                return None

    return Counting()


class TestDecisionHint:
    """Every policy overriding ``next_decision_slot`` prunes decisions on
    both engines without changing the trace."""

    @pytest.fixture(scope="class")
    def small_deployment(self):
        # Small enough for the exact tier to solve in milliseconds.
        config = DeploymentConfig(
            num_nodes=8, area_side=16.0, radius=6.0, source_min_ecc=2, source_max_ecc=None
        )
        return deploy_uniform(config=config, seed=12)

    @pytest.mark.parametrize("duty_model", duty_model_names())
    @pytest.mark.parametrize("policy_cls", [Approx17Policy, ExactPolicy])
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_hint_prunes_decisions(self, small_deployment, engine, policy_cls, duty_model):
        topology, source = small_deployment
        schedule = build_wakeup_schedule(
            topology.node_ids, rate=8, seed=5, model=duty_model, model_seed=6
        )
        kwargs = dict(schedule=schedule, align_start=True, engine=engine)
        baseline = run_broadcast(topology, source, policy_cls(), **kwargs)
        hinted = _decision_counting(policy_cls, hinted=True)
        unhinted = _decision_counting(policy_cls, hinted=False)
        assert run_broadcast(topology, source, hinted, **kwargs) == baseline
        assert run_broadcast(topology, source, unhinted, **kwargs) == baseline
        # The unhinted run is offered every slot up to completion; the
        # hinted one skips the slots its plan promises to idle through.
        assert hinted.calls >= baseline.num_advances
        assert unhinted.calls > hinted.calls


class TestVectorizedValidator:
    def test_validators_agree_on_valid_traces(self, random_deployment):
        topology, source = random_deployment
        schedule = WakeupSchedule(topology.node_ids, rate=5, seed=2)
        trace = run_broadcast(
            topology, source, LargestFirstPolicy(), schedule=schedule, align_start=True
        )
        assert validate_broadcast(topology, trace, schedule=schedule) == []
        assert (
            validate_broadcast(topology, trace, schedule=schedule, backend="vectorized")
            == []
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            "drop_first_advance",
            "duplicate_delivery",
            "sleeping_transmitter",
            "wrong_covered",
            "wrong_end_time",
        ],
    )
    def test_validators_agree_on_corrupted_traces(self, random_deployment, corrupt):
        import dataclasses

        topology, source = random_deployment
        schedule = WakeupSchedule(topology.node_ids, rate=5, seed=2)
        trace = run_broadcast(
            topology, source, LargestFirstPolicy(), schedule=schedule, align_start=True
        )
        advances = list(trace.advances)
        if corrupt == "drop_first_advance":
            bad = dataclasses.replace(trace, advances=tuple(advances[1:]))
        elif corrupt == "duplicate_delivery":
            first = advances[0]
            advances[1] = dataclasses.replace(
                advances[1], receivers=advances[1].receivers | first.receivers
            )
            bad = dataclasses.replace(trace, advances=tuple(advances))
        elif corrupt == "sleeping_transmitter":
            target = advances[1]
            asleep_slot = target.time + 1
            while any(
                schedule.is_active(u, asleep_slot) for u in target.color
            ) or any(a.time == asleep_slot for a in advances):
                asleep_slot += 1
            advances[1] = dataclasses.replace(target, time=asleep_slot)
            advances.sort(key=lambda a: a.time)
            bad = dataclasses.replace(
                trace, advances=tuple(advances), end_time=max(a.time for a in advances)
            )
        elif corrupt == "wrong_covered":
            bad = dataclasses.replace(
                trace, covered=trace.covered - {max(trace.covered)}
            )
        else:
            bad = dataclasses.replace(trace, end_time=trace.end_time + 3)

        reference = validate_broadcast(topology, bad, schedule=schedule)
        vectorized = validate_broadcast(
            topology, bad, schedule=schedule, backend="vectorized"
        )
        assert reference, f"corruption {corrupt!r} was not detected"
        assert vectorized == reference

    def test_unknown_backend_rejected(self, random_deployment):
        topology, source = random_deployment
        trace = run_broadcast(topology, source, LargestFirstPolicy())
        with pytest.raises(ValueError, match="unknown validation backend"):
            validate_broadcast(topology, trace, backend="quantum")

    def test_unknown_covered_ids_fall_back_to_reference(self, random_deployment):
        import dataclasses

        topology, source = random_deployment
        trace = run_broadcast(topology, source, LargestFirstPolicy())
        bad = dataclasses.replace(trace, covered=trace.covered | {987_654})
        reference = validate_broadcast(topology, bad)
        vectorized = validate_broadcast(topology, bad, backend="vectorized")
        assert reference
        assert vectorized == reference
