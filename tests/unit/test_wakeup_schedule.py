"""Unit tests for repro.dutycycle.schedule."""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest

from repro.dutycycle.models import build_wakeup_schedule
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.streams import pcg64_states
from repro.dutycycle.window import window_for
from repro.network.graphs import figure2_duty_schedule, figure2_topology
from repro.utils.rng import derive_seed, make_rng
from tests.oracles import grid_deployment


class TestConstruction:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0, 1], rate=0)

    def test_explicit_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0, 1], rate=5, explicit={7: [1]})

    def test_explicit_empty_slots_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0], rate=5, explicit={0: []})

    def test_node_membership(self):
        schedule = WakeupSchedule([3, 1, 2], rate=4)
        assert schedule.node_ids == (1, 2, 3)
        assert 2 in schedule and 9 not in schedule


class TestPseudoRandomSchedules:
    def test_exactly_one_wakeup_per_cycle(self):
        schedule = WakeupSchedule([0], rate=10, seed=1)
        slots = schedule.active_slots_until(0, 100)
        assert len(slots) == 10
        for cycle in range(10):
            in_cycle = [s for s in slots if cycle * 10 < s <= (cycle + 1) * 10]
            assert len(in_cycle) == 1

    def test_reproducible_per_seed(self):
        a = WakeupSchedule([0, 1], rate=10, seed=3)
        b = WakeupSchedule([0, 1], rate=10, seed=3)
        assert a.active_slots_until(0, 50) == b.active_slots_until(0, 50)
        assert a.active_slots_until(1, 50) == b.active_slots_until(1, 50)

    def test_nodes_have_independent_streams(self):
        schedule = WakeupSchedule(list(range(20)), rate=10, seed=3)
        patterns = {tuple(schedule.active_slots_until(u, 100)) for u in range(20)}
        assert len(patterns) > 1

    def test_is_active_consistent_with_slot_list(self):
        schedule = WakeupSchedule([0], rate=7, seed=5)
        slots = set(schedule.active_slots_until(0, 70))
        for slot in range(1, 71):
            assert schedule.is_active(0, slot) == (slot in slots)

    def test_next_active_slot_is_active_and_minimal(self):
        schedule = WakeupSchedule([0], rate=9, seed=2)
        for slot in (1, 5, 13, 40):
            nxt = schedule.next_active_slot(0, slot)
            assert nxt >= slot
            assert schedule.is_active(0, nxt)
            assert not any(schedule.is_active(0, s) for s in range(slot, nxt))

    def test_slot_queries_are_one_based(self):
        schedule = WakeupSchedule([0], rate=5, seed=0)
        with pytest.raises(ValueError):
            schedule.is_active(0, 0)
        with pytest.raises(ValueError):
            schedule.next_active_slot(0, 0)


class TestExplicitSchedules:
    def test_explicit_slots_respected(self):
        schedule = WakeupSchedule.from_explicit({0: [2, 12], 1: [4, 14]}, rate=10)
        assert schedule.is_active(0, 2)
        assert schedule.is_active(1, 14)
        assert not schedule.is_active(1, 2)

    def test_pattern_repeats_beyond_horizon(self):
        schedule = WakeupSchedule.from_explicit({0: [3]}, rate=10)
        # Horizon is one cycle (10 slots); the pattern repeats afterwards.
        assert schedule.is_active(0, 13)
        assert schedule.next_active_slot(0, 4) == 13

    def test_mixed_explicit_and_random(self):
        schedule = WakeupSchedule([0, 1], rate=5, seed=1, explicit={0: [2]})
        assert schedule.is_active(0, 2)
        assert len(schedule.active_slots_until(1, 25)) == 5


class TestHelpers:
    def test_awake_nodes_filters(self):
        schedule = WakeupSchedule.from_explicit({0: [1], 1: [2], 2: [1]}, rate=3)
        assert schedule.awake_nodes([0, 1, 2], 1) == frozenset({0, 2})
        assert schedule.awake_nodes([0, 1, 2], 2) == frozenset({1})

    def test_next_awake_slot_over_candidates(self):
        schedule = WakeupSchedule.from_explicit({0: [5], 1: [3]}, rate=10)
        assert schedule.next_awake_slot([0, 1], 1) == 3
        assert schedule.next_awake_slot([0], 1) == 5
        assert schedule.next_awake_slot([], 1) is None

    def test_iter_active_yields_increasing_slots(self):
        schedule = WakeupSchedule([0], rate=6, seed=4)
        iterator = schedule.iter_active(0)
        slots = [next(iterator) for _ in range(5)]
        assert slots == sorted(slots)
        assert all(schedule.is_active(0, s) for s in slots)

    def test_synchronous_degenerate_schedule(self):
        schedule = WakeupSchedule.synchronous([0, 1, 2])
        assert schedule.rate == 1
        for slot in range(1, 10):
            assert schedule.awake_nodes([0, 1, 2], slot) == frozenset({0, 1, 2})

    def test_active_slots_until_zero_horizon(self):
        schedule = WakeupSchedule([0], rate=3, seed=0)
        assert schedule.active_slots_until(0, 0) == []


class TestChunkedStream:
    """Chunked draws reproduce the stream of one scalar draw per cycle."""

    CYCLES = 10_000

    @classmethod
    def _reference(cls, seed: int, node: int, rate: int) -> list[int]:
        rng = make_rng(derive_seed(seed, "wakeup", node))
        return [k * rate + int(rng.integers(1, rate + 1)) for k in range(cls.CYCLES)]

    @classmethod
    def _check(cls, schedule: WakeupSchedule, seed: int, query_seed: int) -> None:
        rng = make_rng(query_seed)
        for node in schedule.node_ids:
            rate = schedule.rate_of(node)
            reference = cls._reference(seed, node, rate)
            active = set(reference)
            # Log-uniform slots: many small queries land before and between
            # the large ones, so the chunk boundaries fall anywhere.
            top = math.log((cls.CYCLES - 2) * rate)
            for _ in range(400):
                slot = int(math.exp(rng.uniform(0.0, top)))
                kind = int(rng.integers(3))
                if kind == 0:
                    assert schedule.is_active(node, slot) == (slot in active)
                elif kind == 1:
                    expected = reference[bisect.bisect_left(reference, slot)]
                    assert schedule.next_active_slot(node, slot) == expected
                else:
                    expected = reference[: bisect.bisect_right(reference, slot)]
                    assert schedule.active_slots_until(node, slot) == expected

    @pytest.mark.parametrize("rate", [1, 3, 10, 50])
    def test_uniform_rate_matches_scalar_reference(self, rate):
        schedule = WakeupSchedule(range(3), rate, seed=11)
        self._check(schedule, seed=11, query_seed=rate)

    def test_heterogeneous_rates_match_scalar_reference(self):
        rates = {0: 1, 1: 3, 2: 10, 3: 50}
        schedule = WakeupSchedule(range(5), 7, seed=5, rates=rates)
        self._check(schedule, seed=5, query_seed=99)


class TestWakeupIndex:
    """The shared activity window answers exactly the schedule's point queries."""

    @staticmethod
    def _check(topology, schedule, last_slot: int, seed: int) -> None:
        window = window_for(schedule, topology)
        # Query a late slot first so the window grows out of order.
        for slot in [last_slot, *range(1, last_slot + 1)]:
            awake = topology.nodes_from_mask(window.awake_mask(slot))
            assert awake == schedule.awake_nodes(topology.node_ids, slot)
        rng = make_rng(seed)
        ids = list(topology.node_ids)
        for _ in range(200):
            size = int(rng.integers(1, min(len(ids), 6) + 1))
            frontier = [int(u) for u in rng.choice(ids, size=size, replace=False)]
            slot = int(rng.integers(1, last_slot + 1))
            assert window.next_awake(
                topology.mask_from_nodes(frontier), slot
            ) == schedule.next_awake_slot(frontier, slot)
        assert window.next_awake(0, 1) is None

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_matches_point_queries(self, model):
        topology = grid_deployment(6, 6, spacing=1.0, radius=1.1, seed=2)
        schedule = build_wakeup_schedule(topology.node_ids, 10, seed=7, model=model)
        self._check(topology, schedule, last_slot=6 * schedule.max_rate, seed=1)

    @staticmethod
    def _mixed_schedule() -> WakeupSchedule:
        return WakeupSchedule(
            range(36),
            10,
            seed=4,
            explicit={1: [2, 15], 7: [9], 20: [3, 4, 40]},
            rates={2: 3, 3: 50, 7: 4, 11: 1, 20: 20},
        )

    def test_activity_window_matches_point_queries_mid_cycle(self):
        windowed = self._mixed_schedule()
        pointwise = self._mixed_schedule()
        rows = [3, 1, 20, 0, 7, 11, 2, 35, 5]
        for start, stop in [(4, 37), (13, 13), (28, 263), (95, 1004), (1, 1), (9, 8)]:
            expected = np.array(
                [[pointwise.is_active(u, s) for s in range(start, stop + 1)] for u in rows],
                dtype=bool,
            ).reshape(len(rows), max(stop - start + 1, 0))
            assert np.array_equal(windowed.activity_window(rows, start, stop), expected)

    def test_awake_masks_survive_several_doublings(self):
        topology = grid_deployment(6, 6, spacing=1.0, radius=1.1, seed=2)
        schedule = self._mixed_schedule()
        window = window_for(schedule, topology)
        # The slowest node has r=50, so the window starts at 400 slots and
        # doubles to 800, 1600, 3200 and 6400 on the way.
        for slot in range(1, 3300):
            awake = topology.nodes_from_mask(window.awake_mask(slot))
            assert awake == schedule.awake_nodes(topology.node_ids, slot)

    def test_explicit_figure2e_schedule_past_its_repeat_horizon(self):
        # The explicit slots end at 18; the pattern repeats every 20 slots.
        self._check(figure2_topology(), figure2_duty_schedule(), last_slot=95, seed=2)

    def test_slots_are_one_based(self):
        topology = figure2_topology()
        window = window_for(figure2_duty_schedule(), topology)
        with pytest.raises(ValueError):
            window.awake_mask(0)
        with pytest.raises(ValueError):
            window.next_awake(topology.full_mask, 0)

    def test_one_window_per_schedule_and_topology(self):
        topology = figure2_topology()
        schedule = figure2_duty_schedule()
        assert window_for(schedule, topology) is window_for(schedule, topology)
        assert window_for(figure2_duty_schedule(), topology) is not window_for(schedule, topology)
        assert window_for(schedule, figure2_topology()) is not window_for(schedule, topology)


class TestStreamBlock:
    """Every drawn stream equals numpy's own per-node generator, bit for bit."""

    @staticmethod
    def _oracle(seed: int, node: int, rate: int, cycles: int) -> list[int]:
        rng = np.random.default_rng(derive_seed(seed, "wakeup", node))
        return (np.arange(cycles) * rate + rng.integers(1, rate + 1, size=cycles)).tolist()

    @classmethod
    def _check(cls, schedule: WakeupSchedule, seed: int, cycles: int) -> None:
        nodes = list(schedule.node_ids)
        horizon = cycles * schedule.max_rate
        window = schedule.activity_window(nodes, 1, horizon)
        for row, node in enumerate(nodes):
            rate = schedule.rate_of(node)
            expected = cls._oracle(seed, node, rate, cycles)
            assert schedule.active_slots_until(node, cycles * rate) == expected
            reach = [s for s in cls._oracle(seed, node, rate, horizon // rate + 1) if s <= horizon]
            assert (np.flatnonzero(window[row]) + 1).tolist() == reach

    @pytest.mark.parametrize("rate", [1, 2, 3, 10, 50])
    def test_uniform_rates_match_numpy(self, rate):
        schedule = WakeupSchedule(range(210), rate, seed=2012)
        self._check(schedule, seed=2012, cycles=40)

    def test_heterogeneous_rates_match_numpy(self):
        rng = make_rng(3)
        rates = {u: int(rng.choice([1, 2, 3, 7, 10, 50, 97])) for u in range(240)}
        schedule = WakeupSchedule(range(240), 10, seed=99, rates=rates)
        self._check(schedule, seed=99, cycles=24)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_seeding_matches_pcg64(self, seed):
        # One entropy word below 2**32, two from 2**32 on.
        state_lo, state_hi, inc_lo, inc_hi = pcg64_states(np.array([seed], dtype=np.uint64))
        expected = np.random.PCG64(seed).state["state"]
        assert (int(state_hi[0]) << 64) | int(state_lo[0]) == expected["state"]
        assert (int(inc_hi[0]) << 64) | int(inc_lo[0]) == expected["inc"]

    @pytest.mark.parametrize("rate", [3_000_000_000, 2**32 - 2**26])
    def test_lemire_rejections_fall_back_to_numpy(self, rate):
        # 2**32 mod r is ~1.29e9 for r = 3e9 (most rows reject in their
        # first chunk) and 2**26 for r = 2**32 - 2**26 (one draw in 64, so
        # many rows reject only in a later chunk).  Half the nodes run at
        # r = 10 beside them and must stay on the vectorized path.
        rates = {u: rate for u in range(0, 200, 2)}
        schedule = WakeupSchedule(range(200), 10, seed=5, rates=rates)
        for cycles in (16, 40, 100):
            for node in range(200):
                node_rate = schedule.rate_of(node)
                expected = self._oracle(5, node, node_rate, cycles)
                assert schedule.active_slots_until(node, cycles * node_rate) == expected
        assert schedule._streams._numpy  # the fallback ran
        assert not any(row % 2 for row in schedule._streams._numpy)

    def test_rates_above_two_to_the_32(self):
        rates = {0: 2**32, 1: 2**32 + 7, 2: 10**12, 3: 10}
        schedule = WakeupSchedule(range(4), 10, seed=8, rates=rates)
        for node, rate in rates.items():
            expected = self._oracle(8, node, rate, 20)
            assert schedule.active_slots_until(node, 20 * rate) == expected
            assert schedule.next_active_slot(node, 5 * rate + 1) == expected[5]

    def test_far_queries_first_grow_the_block_out_of_order(self):
        schedule = WakeupSchedule(range(220), 10, seed=13, rates={7: 3, 8: 50})
        oracle = {u: self._oracle(13, u, schedule.rate_of(u), 6000) for u in (0, 7, 8, 219)}
        for node in (219, 0, 8, 7):
            rate = schedule.rate_of(node)
            far = oracle[node][5000]
            assert schedule.is_active(node, far)
            assert schedule.next_active_slot(node, 4999 * rate + 1) == oracle[node][4999]
        for node, slots in oracle.items():
            for cycle in (0, 1, 17, 640, 5999):
                slot = slots[cycle]
                assert schedule.is_active(node, slot)
                earlier = max(1, slot - schedule.rate_of(node) + 1)
                expected = slots[bisect.bisect_left(slots, earlier)]
                assert schedule.next_active_slot(node, earlier) == expected
            assert schedule.active_slots_until(node, 100 * schedule.rate_of(node)) == slots[:100]
