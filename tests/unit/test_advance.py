"""Unit tests for repro.core.advance (BroadcastState and Advance)."""

from __future__ import annotations

import pytest

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import EModelPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import receivers_of
from repro.sim.engine import SlotEngine
from repro.sim.fast_engine import FastRoundEngine, FastSlotEngine
from repro.utils.rng import make_rng


def _random_states(topology, seed, count=30):
    """``count`` random ``(covered, colour)`` pairs, the colour inside ``covered``."""
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    for _ in range(count):
        covered = frozenset(
            int(u) for u in rng.choice(ids, size=int(rng.integers(1, len(ids))), replace=False)
        )
        members = sorted(covered)
        color = frozenset(
            int(u)
            for u in rng.choice(
                members, size=int(rng.integers(1, len(members) + 1)), replace=False
            )
        )
        yield covered, color


class TestBroadcastState:
    def test_basic_properties(self, figure2):
        topo, source = figure2
        state = BroadcastState(topo, frozenset({source}), time=1)
        assert state.uncovered == topo.node_set - {source}
        assert not state.is_complete
        assert state.is_synchronous

    def test_complete_state(self, figure2):
        topo, _ = figure2
        state = BroadcastState(topo, topo.node_set, time=5)
        assert state.is_complete
        assert state.uncovered == frozenset()

    def test_unknown_covered_node_rejected(self, figure2):
        topo, _ = figure2
        with pytest.raises(ValueError):
            BroadcastState(topo, frozenset({99}), time=1)

    def test_time_must_be_positive(self, figure2):
        topo, source = figure2
        with pytest.raises(ValueError):
            BroadcastState(topo, frozenset({source}), time=0)

    def test_awake_synchronous_returns_everything(self, figure2):
        topo, source = figure2
        state = BroadcastState(topo, frozenset({source}), time=1)
        assert state.awake(frozenset({1, 2, 3})) == frozenset({1, 2, 3})

    def test_awake_duty_filters_by_schedule(self, figure2):
        topo, source = figure2
        schedule = WakeupSchedule.from_explicit({u: [u + 1] for u in topo.node_ids}, rate=10)
        state = BroadcastState(topo, topo.node_set, time=2, schedule=schedule)
        assert not state.is_synchronous
        assert state.awake(topo.node_set) == frozenset({1})

    def test_covered_mask_of_the_public_constructor(self, small_deployment):
        topo, _ = small_deployment
        for covered, _ in _random_states(topo, seed=3):
            state = BroadcastState(topo, covered, time=1)
            assert state.covered_mask == topo.mask_from_nodes(covered)
        successor = state.advanced(
            Advance.from_color(topo, covered, frozenset(covered), time=1), new_time=2
        )
        assert successor.covered_mask == topo.mask_from_nodes(successor.covered)

    def test_covered_mask_is_derived_not_compared(self, figure2):
        topo, source = figure2
        state = BroadcastState(topo, frozenset({source}), time=1)
        engine_state = BroadcastState.for_engine(
            topo, frozenset({source}), 1, None, state.covered_mask
        )
        assert engine_state == state
        assert "covered_mask" not in repr(state)

    @pytest.mark.parametrize("engine_cls", [FastRoundEngine, FastSlotEngine, SlotEngine])
    def test_engine_states_carry_the_mask_of_covered(self, small_deployment, engine_cls):
        topo, source = small_deployment
        seen = []

        class Recording(EModelPolicy):
            def select_advance(self, state):
                assert state.covered_mask == topo.mask_from_nodes(state.covered)
                seen.append(state.covered_mask)
                return super().select_advance(state)

        if engine_cls is FastRoundEngine:
            engine = engine_cls(topo)
        else:
            engine = engine_cls(topo, WakeupSchedule(topo.node_ids, rate=4, seed=1))
        policy = Recording()
        policy.prepare(topo, engine.schedule, source)
        engine.run(policy, source)
        assert len(set(seen)) > 1

    def test_advanced_produces_successor(self, figure2):
        topo, source = figure2
        state = BroadcastState(topo, frozenset({source}), time=1)
        advance = Advance.from_color(topo, state.covered, frozenset({source}), time=1)
        nxt = state.advanced(advance, new_time=2)
        assert nxt.covered == frozenset({1, 2, 3})
        assert nxt.time == 2
        # No advance: coverage unchanged.
        idle = nxt.advanced(None, new_time=3)
        assert idle.covered == nxt.covered


class TestAdvance:
    def test_from_color_computes_receivers(self, figure2):
        topo, source = figure2
        advance = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=1)
        assert advance.receivers == frozenset({2, 3})

    def test_utilization(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2, 3, 4, 10})
        advance = Advance.from_color(topo, covered, frozenset({0, 4}), time=3)
        assert advance.receivers == frozenset({5, 6, 7, 8, 9})
        assert advance.utilization == pytest.approx(2.5)

    def test_from_masks_equals_from_color_on_random_colours(self, small_deployment):
        topo, _ = small_deployment
        for covered, color in _random_states(topo, seed=11):
            expected = Advance.from_color(
                topo, covered, color, time=4, color_index=2, num_colors=5, note="n"
            )
            color_mask = topo.mask_from_nodes(color)
            reached = 0
            for u in color:
                reached |= topo.neighbor_mask(u)
            built = Advance.from_masks(
                topo,
                color_mask,
                reached & ~topo.mask_from_nodes(covered),
                time=4,
                color_index=2,
                num_colors=5,
                note="n",
            )
            assert built == expected
            assert (built.color_index, built.num_colors, built.note) == (2, 5, "n")
            assert built.receivers == receivers_of(topo, color, covered)

    def test_empty_color_rejected(self):
        with pytest.raises(ValueError):
            Advance(time=1, color=frozenset(), receivers=frozenset())

    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            Advance(time=0, color=frozenset({1}), receivers=frozenset())

    def test_note_not_part_of_equality(self):
        a = Advance(time=1, color=frozenset({1}), receivers=frozenset({2}), note="x")
        b = Advance(time=1, color=frozenset({1}), receivers=frozenset({2}), note="y")
        assert a == b
