"""Unit tests for repro.core.time_counter (the time counter M)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import ColorScheme, greedy_color_classes, lex_order_key
from repro.core.time_counter import (
    SearchBudgetExceeded,
    SearchConfig,
    TimeCounter,
    UnreachableNodes,
)
from repro.dutycycle.models import build_wakeup_schedule
from repro.network.graphs import FIGURE2_DUTY_START
from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.mode == "exact"
        assert config.beam_width == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"beam_width": 0},
            {"max_states": 0},
            {"max_slots": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestSynchronousExact:
    def test_figure2_completion_matches_table2(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        assert counter.completion_time({source}, 1) == 2

    def test_figure1_completion_matches_table3(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        assert counter.completion_time({source}, 1) == 3

    def test_complete_coverage_returns_t_minus_one(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo)
        assert counter.completion_time(topo.node_set, 7) == 6

    def test_time_shift_invariance(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        base = counter.completion_time({source}, 1)
        shifted = counter.completion_time({source}, 5)
        assert shifted == base + 4

    def test_monotone_in_coverage(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        small = frozenset({source})
        large = small | frozenset({0, 1, 2})
        assert counter.completion_time(large, 1) <= counter.completion_time(small, 1)

    def test_rank_colors_prefers_node1_on_figure1(self, figure1):
        """The core motivating decision: selecting {1} beats selecting {0}."""
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        ranked = counter.rank_colors(covered, 2, colors)
        assert ranked[0][0] == frozenset({1})
        assert ranked[0][1] == 3
        by_color = dict(ranked)
        assert by_color[frozenset({0})] == 4
        assert by_color[frozenset({2})] == 4

    def test_select_color_agrees_with_rank(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        assert counter.select_color(covered, 2, colors) == counter.rank_colors(
            covered, 2, colors
        )[0]

    def test_best_color_none_when_complete(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo)
        assert counter.best_color(topo.node_set, 3) is None

    def test_line_graph_needs_eccentricity_rounds(self, line_topology):
        counter = TimeCounter(line_topology)
        assert counter.completion_time({0}, 1) == line_topology.eccentricity(0)

    def test_exhaustive_scheme_no_worse_than_greedy(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            greedy = TimeCounter(topo, color_scheme=ColorScheme("greedy"))
            exhaustive = TimeCounter(topo, color_scheme=ColorScheme("exhaustive"))
            assert exhaustive.completion_time({source}, 1) <= greedy.completion_time(
                {source}, 1
            )

    def test_unreachable_nodes_detected(self):
        topo = WSNTopology.from_positions([(0, 0), (1, 0), (50, 50)], radius=2.0)
        counter = TimeCounter(topo)
        with pytest.raises(UnreachableNodes):
            counter.completion_time({0}, 1)

    def test_state_budget_enforced(self, medium_deployment):
        topo, source = medium_deployment
        counter = TimeCounter(topo, config=SearchConfig(mode="exact", max_states=3))
        with pytest.raises(SearchBudgetExceeded):
            counter.completion_time({source}, 1)

    def test_clear_cache_resets_stats(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        counter.completion_time({source}, 1)
        assert counter.stats.expansions > 0
        counter.clear_cache()
        assert counter.stats.expansions == 0

    def test_invalid_time_rejected(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        with pytest.raises(ValueError):
            counter.completion_time({source}, 0)

    def test_select_color_requires_candidates(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        with pytest.raises(ValueError):
            counter.select_color({source}, 1, [])


class TestSynchronousBeam:
    def test_beam_matches_exact_on_paper_examples(self, figure1, figure2):
        for topo, source in (figure1, figure2):
            exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
            beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
            assert beam.completion_time({source}, 1) == exact.completion_time({source}, 1)

    def test_beam_matches_exact_on_small_random(self, small_deployment):
        topo, source = small_deployment
        exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
        beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=8))
        assert beam.completion_time({source}, 1) == exact.completion_time({source}, 1)

    def test_beam_select_color_on_figure1(self, figure1):
        topo, source = figure1
        beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        color, completion = beam.select_color(covered, 2, colors)
        assert color == frozenset({1})
        assert completion == 3

    def test_beam_results_bracketed_by_bounds(self, medium_deployment):
        """Any beam width yields a valid schedule length: >= d and close to d."""
        topo, source = medium_deployment
        eccentricity = topo.eccentricity(source)
        for width in (1, 4, 8):
            counter = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=width))
            latency = counter.completion_time({source}, 1)
            assert latency >= eccentricity
            assert latency <= eccentricity + 3


class TestDutyCycle:
    def test_figure2_duty_matches_table4(self, figure2_duty):
        topo, source, schedule = figure2_duty
        counter = TimeCounter(topo, schedule=schedule)
        assert counter.completion_time({source}, FIGURE2_DUTY_START) == 4

    def test_deferring_to_node3_is_worse(self, figure2_duty):
        """Table IV: selecting {3} at slot 4 postpones completion past r+3."""
        topo, source, schedule = figure2_duty
        counter = TimeCounter(topo, schedule=schedule)
        covered = frozenset({1, 2, 3})
        ranked = counter.rank_colors(covered, 4, [frozenset({2}), frozenset({3})])
        by_color = dict(ranked)
        assert by_color[frozenset({2})] == 4
        assert by_color[frozenset({3})] > 10

    def test_beam_matches_exact_on_duty_example(self, figure2_duty):
        topo, source, schedule = figure2_duty
        exact = TimeCounter(topo, schedule=schedule, config=SearchConfig(mode="exact"))
        beam = TimeCounter(
            topo, schedule=schedule, config=SearchConfig(mode="beam", beam_width=4)
        )
        assert beam.completion_time({source}, FIGURE2_DUTY_START) == exact.completion_time(
            {source}, FIGURE2_DUTY_START
        )

    def test_duty_completion_at_least_sync(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=5)
        sync = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        duty = TimeCounter(
            topo, schedule=schedule, config=SearchConfig(mode="beam", beam_width=4)
        )
        start = schedule.next_active_slot(source, 1)
        sync_latency = sync.completion_time({source}, 1)
        duty_latency = duty.completion_time({source}, start) - start + 1
        assert duty_latency >= sync_latency


class TestBitmaskSearchState:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_tie_break_key_orders_equal_popcount_masks_like_sorted_ids(self, data):
        width = data.draw(st.integers(1, 320), label="width")
        size = data.draw(st.integers(0, min(width, 40)), label="size")
        members = st.lists(
            st.integers(0, width - 1), min_size=size, max_size=size, unique=True
        )
        a, b = data.draw(members, label="a"), data.draw(members, label="b")
        mask_a = sum(1 << i for i in a)
        mask_b = sum(1 << i for i in b)
        key_a, key_b = lex_order_key(mask_a, width), lex_order_key(mask_b, width)
        tuple_a, tuple_b = tuple(sorted(a)), tuple(sorted(b))
        assert (key_a < key_b) == (tuple_a < tuple_b)
        assert (key_a == key_b) == (tuple_a == tuple_b)

    def test_state_key_sorts_states_like_the_frozenset_key(self, medium_deployment):
        topo, _ = medium_deployment
        counter = TimeCounter(topo)
        rng = make_rng(11)
        ids = list(topo.node_ids)
        states = [
            frozenset(int(u) for u in rng.choice(ids, size=int(rng.integers(1, 6)), replace=False))
            for _ in range(400)
        ]
        expected = sorted(set(states), key=lambda s: (-len(s), tuple(sorted(s))))
        masks = sorted({topo.mask_from_nodes(s) for s in states}, key=counter._state_key)
        assert [topo.nodes_from_mask(m) for m in masks] == expected

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_decision_slot_and_pool_match_point_queries(self, medium_deployment, model):
        """The wake-up index answers the frontier scan the schedule answers."""
        topo, source = medium_deployment
        schedule = build_wakeup_schedule(topo.node_ids, 10, seed=3, model=model)
        counter = TimeCounter(topo, schedule=schedule)
        rng = make_rng(5)
        for _ in range(60):
            radius = int(rng.integers(0, 6))
            covered = frozenset(
                u for u, d in topo.hop_distances(source).items() if d <= radius
            )
            if covered == topo.node_set:
                continue
            slot = int(rng.integers(1, 200))
            frontier = [u for u in covered if topo.uncovered_neighbors(u, covered)]
            expected_slot = schedule.next_awake_slot(frontier, slot)
            decision_slot, pool = counter._next_decision(topo.mask_from_nodes(covered), slot)
            assert decision_slot == expected_slot
            assert topo.nodes_from_mask(pool) == schedule.awake_nodes(frontier, expected_slot)
