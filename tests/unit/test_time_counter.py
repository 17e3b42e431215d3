"""Unit tests for repro.core.time_counter (the time counter M)."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import ColorScheme, frontier_mask, greedy_color_classes, lex_order_key
from repro.core.advance import BroadcastState
from repro.core.policies import GreedyOptPolicy, OptPolicy
from repro.core.search import ExactSearch
from repro.core.time_counter import (
    SearchBudgetExceeded,
    SearchConfig,
    TimeCounter,
    UnreachableNodes,
)
from repro.dutycycle.models import build_wakeup_schedule
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.graphs import FIGURE2_DUTY_START
from repro.network.topology import WSNTopology
from repro.scenarios import generate_scenario, scenario_names
from repro.sim.broadcast import run_broadcast
from repro.utils.rng import derive_seed, make_rng


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

    def test_decide_agrees_with_rank(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        assert _decided(counter, covered, 2) == counter.rank_colors(covered, 2, colors)[0][0]

    def test_decide_none_when_complete(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo)
        assert counter.decide(topo.full_mask, 3) is None

    def test_rank_colors_without_candidates_is_empty(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        assert counter.rank_colors({source}, 1, []) == []
        assert counter.stats.expansions == 0

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


def _decided(counter, covered, time):
    """The colour ``decide`` launches at ``(W, t)``, as node ids (``None`` if none)."""
    mask = counter.topology.mask_from_nodes(covered)
    position = counter.decide(mask, time)
    if position is None:
        return None
    return counter.topology.nodes_from_mask(counter.color_masks_at(mask, time)[position][0])


def _walk(counter, covered, time):
    """Follow ``decide`` from ``(W, t)`` until every node is covered.

    Returns the ``(slot, colour)`` launches, colours as sorted node-id
    lists, and the end slot: in exact mode that end is ``M(W, t)``, and
    in beam mode the completion the beam's decisions reach.
    """
    topo = counter.topology
    mask = topo.mask_from_nodes(covered)
    launches, end = [], time - 1
    while mask != topo.full_mask:
        position = counter.decide(mask, time)
        if position is not None:
            color, reached = counter.color_masks_at(mask, time)[position]
            launches.append([time, sorted(topo.nodes_from_mask(color))])
            mask |= reached
            end = time
        time += 1
    return launches, end


_ENTRIES = ["completion_time", "rank_colors"]


def _entry_call(counter, method, covered, time, color):
    """Call one node-id ``TimeCounter`` entry; ``color`` is the candidate."""
    if method == "completion_time":
        return counter.completion_time(covered, time)
    return counter.rank_colors(covered, time, [color])


class TestEntryValidation:
    """Every node-id entry rejects a bad ``time`` or node set up front, in
    both modes and both systems, before any search runs; a beam counter
    then refuses a well-formed call, and ``decide`` checks ``time`` in
    either mode."""

    @pytest.fixture(params=["sync", "duty"])
    def make_counter(self, request, figure2_duty):
        topo, source, schedule = figure2_duty
        if request.param == "sync":
            schedule = None

        def make(mode="exact"):
            config = SearchConfig(mode=mode, beam_width=4)
            return TimeCounter(topo, schedule=schedule, config=config), source

        return make

    @pytest.mark.parametrize("time", [0, -3])
    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("method", _ENTRIES)
    def test_time_below_one(self, make_counter, method, mode, time):
        counter, source = make_counter(mode)
        with pytest.raises(ValueError, match=rf"time is 1-based, got {time}$"):
            _entry_call(counter, method, {source}, time, frozenset({source}))

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("method", _ENTRIES)
    def test_unknown_covered_nodes(self, make_counter, method, mode):
        counter, source = make_counter(mode)
        with pytest.raises(ValueError, match=r"covered holds .*: \[9998, 9999\]"):
            _entry_call(counter, method, {source, 9999, 9998}, 1, frozenset({source}))

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("method", ["rank_colors"])
    def test_unknown_color_nodes(self, make_counter, method, mode):
        counter, source = make_counter(mode)
        with pytest.raises(ValueError, match=r"colour holds .*: \[9999\]"):
            _entry_call(counter, method, {source}, 1, frozenset({source, 9999}))

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("method", _ENTRIES)
    def test_empty_covered(self, make_counter, method, mode):
        counter, source = make_counter(mode)
        with pytest.raises(ValueError, match="covered is empty"):
            _entry_call(counter, method, set(), 1, frozenset({source}))

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("method", ["rank_colors"])
    def test_uncovered_color_senders(self, figure1, method, mode):
        """Only covered nodes may send: on Figure 1 with ``W = {11}``, node 3
        has not received the message, so the colour ``{3}`` is rejected."""
        topo, source = figure1
        counter = TimeCounter(topo, config=SearchConfig(mode=mode, beam_width=4))
        with pytest.raises(ValueError, match=r"senders not in covered: \[3\]$"):
            getattr(counter, method)({source}, 1, [{3}, {source}])

    @pytest.mark.parametrize("method", _ENTRIES)
    def test_beam_counter_names_its_mode(self, make_counter, method):
        counter, source = make_counter("beam")
        with pytest.raises(ValueError, match=rf"^{method} .*mode is 'beam'.*decide only$"):
            _entry_call(counter, method, {source}, 1, frozenset({source}))
        assert counter.stats.expansions == 0

    @pytest.mark.parametrize("time", [0, -3])
    @pytest.mark.parametrize("mode", ["exact", "beam"])
    def test_decide_time_below_one(self, make_counter, mode, time):
        counter, source = make_counter(mode)
        covered = counter.topology.mask_from_nodes({source})
        with pytest.raises(ValueError, match=rf"time is 1-based, got {time}$"):
            counter.decide(covered, time)
        assert counter.stats.expansions == 0


class TestSynchronousBeam:
    def test_decide_none_when_complete(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        assert counter.decide(topo.full_mask, 3) is None
        assert counter.stats.expansions == 0

    def test_beam_matches_exact_on_paper_examples(self, figure1, figure2):
        for topo, source in (figure1, figure2):
            exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
            beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
            assert _walk(beam, {source}, 1) == _walk(exact, {source}, 1)
            assert _walk(exact, {source}, 1)[1] == exact.completion_time({source}, 1)

    def test_beam_matches_exact_on_small_random(self, small_deployment):
        topo, source = small_deployment
        exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
        beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=8))
        assert _walk(beam, {source}, 1)[1] == exact.completion_time({source}, 1)

    def test_beam_select_color_on_figure1(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        for mode in ("beam", "exact"):
            counter = TimeCounter(topo, config=SearchConfig(mode=mode, beam_width=4))
            assert _decided(counter, covered, 2) == frozenset({1})
            assert _walk(counter, covered, 2)[1] == 3

    def test_beam_results_bracketed_by_bounds(self, medium_deployment):
        """Any beam width yields a valid schedule length: >= d and close to d."""
        topo, source = medium_deployment
        eccentricity = topo.eccentricity(source)
        for width in (1, 4, 8):
            counter = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=width))
            _, latency = _walk(counter, {source}, 1)
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
        walked = _walk(beam, {source}, FIGURE2_DUTY_START)
        assert walked == _walk(exact, {source}, FIGURE2_DUTY_START)
        assert walked[1] == exact.completion_time({source}, FIGURE2_DUTY_START)

    def test_duty_completion_at_least_sync(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=5)
        sync = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        duty = TimeCounter(
            topo, schedule=schedule, config=SearchConfig(mode="beam", beam_width=4)
        )
        start = schedule.next_active_slot(source, 1)
        _, sync_latency = _walk(sync, {source}, 1)
        duty_latency = _walk(duty, {source}, start)[1] - start + 1
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

    @pytest.mark.parametrize("width", [*range(1, 18), 299, 300, 301])
    def test_tie_break_key_equals_the_reversed_bit_string(self, width):
        """The byte-table key equals its bit-string definition: every mask up
        to 12 bits, and the extremes plus 300 random masks above that."""
        if width <= 12:
            masks = range(1 << width)
        else:
            rng = random.Random(width)
            masks = [0, 1, 1 << (width - 1), (1 << width) - 1]
            masks += [rng.getrandbits(width) for _ in range(300)]
        for mask in masks:
            assert lex_order_key(mask, width) == -int(format(mask, f"0{width}b")[::-1], 2)

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_decision_slot_and_pool_match_point_queries(self, medium_deployment, model):
        """The wake-up index answers the frontier scan the schedule answers."""
        topo, source = medium_deployment
        schedule = build_wakeup_schedule(topo.node_ids, 10, seed=3, model=model)
        search = ExactSearch(topo, schedule, ColorScheme(), max_states=1)
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
            decision_slot, pool = search.decision(topo.mask_from_nodes(covered), slot)
            assert decision_slot == expected_slot
            assert topo.nodes_from_mask(pool) == schedule.awake_nodes(frontier, expected_slot)


def _memoised_reference(topology, schedule, scheme, covered: int, time: int) -> int:
    """``M(W, t)`` by the plain memoised depth-first search (no bound, no
    incumbent, no dominance): the exact mode's recursion written out."""
    full = topology.full_mask
    window = None if schedule is None else window_for(schedule, topology)
    memo: dict[tuple[int, int], int] = {}

    def completion(covered: int, slot: int) -> int:
        if covered == full:
            return slot - 1
        key = (covered, slot)
        if key not in memo:
            pool = covered
            if window is not None:
                frontier = frontier_mask(topology, covered)
                slot = window.next_awake(frontier, slot)
                pool = frontier & window.awake_mask(slot)
            memo[key] = min(
                completion(covered | reached, slot + 1)
                for _, reached in scheme.color_masks(topology, covered, pool)
            )
        return memo[key]

    return completion(covered, time)


def _reference_instances():
    """Seeded dense deployments (n = 14..24) on which the search must branch
    (the first-colour descent misses the bound) for some provider."""
    instances = []
    for num_nodes, radius, seed in (
        (14, 6.0, 1),
        (16, 6.0, 4),
        (16, 7.0, 4),  # an exhaustive incumbent would undercut greedy M
        (18, 6.0, 6),
        (20, 6.0, 4),
        (24, 7.0, 20),  # subset dominance would overstate greedy M
    ):
        config = DeploymentConfig(
            num_nodes=num_nodes,
            area_side=20.0,
            radius=radius,
            source_min_ecc=2,
            source_max_ecc=None,
        )
        name = f"n{num_nodes}-r{radius:g}-s{seed}"
        instances.append((name, deploy_uniform(config=config, seed=seed)[0]))
    return instances


_REFERENCE = _reference_instances()
_REFERENCE_SCHEMES = {
    "greedy": ColorScheme("greedy"),
    "exhaustive": ColorScheme("exhaustive"),
    "exhaustive-cap3": ColorScheme("exhaustive", 3),
}


def _reference_schedule(topo, system):
    if system == "sync":
        return None
    return build_wakeup_schedule(topo.node_ids, 4, seed=7, model=system.removeprefix("duty-"))


def _reference_states(topo):
    """Every node and its one-hop ball, as the covered set at slot 1 and 5."""
    for centre in topo.node_ids:
        hops = topo.hop_distances(centre)
        for radius in range(2):
            covered = frozenset(u for u, d in hops.items() if d <= radius)
            for time in (1, 5):
                yield covered, time


@pytest.mark.parametrize("system", ["sync", "duty-uniform", "duty-two-tier"])
@pytest.mark.parametrize("scheme", sorted(_REFERENCE_SCHEMES))
@pytest.mark.parametrize("name,topo", _REFERENCE, ids=[name for name, _ in _REFERENCE])
def test_exact_mode_matches_the_memoised_recursion(name, topo, scheme, system):
    """The branch-and-bound's pruning never changes ``M``, for any provider."""
    schedule = _reference_schedule(topo, system)
    provider = _REFERENCE_SCHEMES[scheme]
    counter = TimeCounter(topo, schedule=schedule, color_scheme=provider)
    for covered, time in _reference_states(topo):
        expected = _memoised_reference(
            topo, schedule, provider, topo.mask_from_nodes(covered), time
        )
        assert counter.completion_time(covered, time) == expected


@pytest.mark.parametrize("system", ["sync", "duty-uniform", "duty-two-tier"])
def test_reference_grid_makes_the_search_branch(system):
    """Otherwise the comparison above would never exercise the pruning."""
    for scheme in ("greedy", "exhaustive"):
        expansions = 0
        for _, topo in _REFERENCE:
            counter = TimeCounter(
                topo,
                schedule=_reference_schedule(topo, system),
                color_scheme=_REFERENCE_SCHEMES[scheme],
            )
            for covered, time in _reference_states(topo):
                counter.completion_time(covered, time)
            expansions += counter.stats.expansions
        assert expansions > 0, scheme


def test_capped_provider_keeps_dominated_children():
    """Subset dominance needs every maximal colour: under the colour cap,
    dropping a dominated child overstates ``M`` on this deployment."""
    config = DeploymentConfig(
        num_nodes=30, area_side=20.0, radius=8.0, source_min_ecc=2, source_max_ecc=None
    )
    topo, _ = deploy_uniform(config=config, seed=24)
    capped = ColorScheme("exhaustive", 3)
    covered = frozenset({7})
    expected = _memoised_reference(topo, None, capped, topo.mask_from_nodes(covered), 1)
    assert TimeCounter(topo, color_scheme=capped).completion_time(covered, 1) == expected


def _memo_items(search: ExactSearch) -> int:
    """Items the state memo holds, counted from its tables."""
    return (
        sum(max(len(pairs), 1) for pairs in search._colorings.values())
        + len(search._frontiers)
        + len(search._reaches)
        + len(search._far_sets)
        + len(search._balls)
        + len(search._parents)
    )


class TestStateMemo:
    def test_clear_cache_empties_the_memo(self, medium_deployment):
        topo, source = medium_deployment
        counter = TimeCounter(topo, config=SearchConfig(mode="beam"))
        _walk(counter, {source}, 1)
        search = counter._search
        assert search.memo_size == _memo_items(search) > 0
        counter.clear_cache()
        assert search.memo_size == _memo_items(search) == 0

    @pytest.mark.parametrize("rate", [None, 10])
    def test_reused_counter_matches_a_fresh_one(
        self, medium_deployment, duty_schedule_factory, rate
    ):
        """A counter reused through ``prepare`` replays a broadcast as a fresh
        counter would: same colours, same completions, same stats."""
        topo, source = medium_deployment
        schedule = None if rate is None else duty_schedule_factory(topo, rate=rate)
        align = schedule is not None

        def policy():
            return OptPolicy(search=SearchConfig(mode="beam", beam_width=4), max_color_classes=16)

        reused, fresh = policy(), policy()
        first = run_broadcast(topo, source, reused, schedule=schedule, align_start=align)
        reused.prepare(topo, schedule, source)
        fresh.prepare(topo, schedule, source)
        advance = first.advances[1]
        covered = frozenset({source}) | first.advances[0].receivers
        assert _walk(reused.counter, covered, advance.time) == (
            _walk(fresh.counter, covered, advance.time)
        )
        assert reused.counter.stats == fresh.counter.stats
        reused.prepare(topo, schedule, source)
        fresh.prepare(topo, schedule, source)
        again = run_broadcast(topo, source, reused, schedule=schedule, align_start=align)
        assert again == run_broadcast(topo, source, fresh, schedule=schedule, align_start=align)
        assert reused.counter.stats == fresh.counter.stats

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("max_states", [3, 40])
    def test_memo_never_exceeds_its_bound(self, medium_deployment, mode, max_states):
        """On the deployment of ``test_state_budget_enforced``."""
        topo, source = medium_deployment
        counter = TimeCounter(topo, config=SearchConfig(mode=mode, max_states=max_states))
        search = counter._search
        admit = search._admit
        sizes = []

        def checked(cost: int) -> bool:
            kept = admit(cost)
            sizes.append(search.memo_size)
            assert _memo_items(search) + (cost if kept else 0) == search.memo_size
            return kept

        search._admit = checked
        try:
            _walk(counter, {source}, 1)
        except SearchBudgetExceeded:
            assert mode == "exact"
        assert sizes and max(sizes) <= max_states
        assert _memo_items(search) == search.memo_size <= max_states

    def test_memo_serves_the_search_without_changing_it(self, medium_deployment):
        """Hits happen, and a second identical query repeats the work counters."""
        topo, source = medium_deployment
        counter = TimeCounter(topo, config=SearchConfig(mode="beam"))
        first = _walk(counter, {source}, 1)
        expansions, states = counter.stats.expansions, counter.stats.states
        hits = counter.stats.state_hits
        assert _walk(counter, {source}, 1) == first
        assert counter.stats.expansions == 2 * expansions
        assert counter.stats.states == 2 * states
        assert counter.stats.state_hits > 2 * hits


_BEAM_PROVIDERS = {"G-OPT": ColorScheme("greedy"), "OPT": ColorScheme("exhaustive", 64)}


def _beam_instances(scenario):
    """Seeded n = 10..16 deployments of one scenario."""
    for num_nodes in (10, 12, 14, 16):
        config = DeploymentConfig(
            num_nodes=num_nodes,
            area_side=20.0,
            radius=6.0,
            source_min_ecc=2,
            source_max_ecc=None,
        )
        deployment = generate_scenario(scenario, config, seed=num_nodes)
        yield deployment.topology, deployment.source


@pytest.mark.parametrize("system", ["sync", "duty-uniform", "duty-two-tier", "duty-zipf"])
@pytest.mark.parametrize("scenario", [name for name in scenario_names() if name != "knn"])
def test_beam_never_undercuts_exact(scenario, system):
    """The beam's decisions follow real provider schedules, so the
    completion they reach from the source or its one-hop ball never beats
    the exact recursion's ``M``."""
    for topo, source in _beam_instances(scenario):
        schedule = _reference_schedule(topo, system)
        start = 1 if schedule is None else schedule.next_active_slot(source, 1)
        ball = frozenset(u for u, d in topo.hop_distances(source).items() if d <= 1)
        for provider in _BEAM_PROVIDERS.values():
            exact = TimeCounter(topo, schedule, provider, SearchConfig(mode="exact"))
            beam = TimeCounter(topo, schedule, provider, SearchConfig(mode="beam"))
            assert _walk(beam, {source}, start)[1] >= exact.completion_time({source}, start)
            slot, _ = exact._search.decision(topo.mask_from_nodes(ball), start + 1)
            assert _walk(beam, ball, slot)[1] >= exact.completion_time(ball, slot)


@pytest.mark.parametrize("system", ["sync", "duty-uniform", "duty-two-tier", "duty-zipf"])
@pytest.mark.parametrize("scenario", [name for name in scenario_names() if name != "knn"])
def test_exact_walk_realises_m(scenario, system):
    """Following exact-mode ``decide`` from the source or its one-hop ball
    ends exactly at ``M(W, t)``: the colour it launches is one that attains
    Eq. 4's minimum, and waiting never beats transmitting."""
    for topo, source in _beam_instances(scenario):
        schedule = _reference_schedule(topo, system)
        start = 1 if schedule is None else schedule.next_active_slot(source, 1)
        ball = frozenset(u for u, d in topo.hop_distances(source).items() if d <= 1)
        for provider in _BEAM_PROVIDERS.values():
            exact = TimeCounter(topo, schedule, provider, SearchConfig(mode="exact"))
            assert _walk(exact, {source}, start)[1] == exact.completion_time({source}, start)
            slot, _ = exact._search.decision(topo.mask_from_nodes(ball), start + 1)
            assert _walk(exact, ball, slot)[1] == exact.completion_time(ball, slot)


_PIN_WIDTHS = (1, 2, 4, 8)
_BEAM_PIN = "bb588b2c8a7a5971ac7b3f1727620d06b289f33541b59fb2fc1307cc2d4b1bb5"
_PIN_SYSTEMS = ("sync", "duty-uniform", "duty-two-tier", "duty-zipf")


def _pin_instances():
    """Seeded uniform deployments, n = 12..80, at about seven neighbours a node.

    Picked from a wider seed scan so that the rules that rarely bite do:
    the sync selection's launch-order tie (n = 30, 60, 70) and its popcount
    shortlist (n = 80).
    """
    for num_nodes, seed in ((12, 112), (30, 330), (45, 145), (60, 260), (70, 370), (80, 280)):
        config = DeploymentConfig(
            num_nodes=num_nodes,
            area_side=5.0 * num_nodes**0.5,
            radius=8.0,
            source_min_ecc=3,
            source_max_ecc=None,
        )
        yield deploy_uniform(config=config, seed=seed)


def _pin_queries(counter, topo, source, schedule):
    """The ``decide`` walk from the source, then ``decide`` on its one- and
    two-hop balls, each with the counter's running ``states``."""
    hops = topo.hop_distances(source)
    start = 1 if schedule is None else schedule.next_active_slot(source, 1)
    rows = [[_walk(counter, {source}, start), counter.stats.states]]
    for radius in (1, 2):
        ball = frozenset(u for u, d in hops.items() if d <= radius)
        slot, _ = counter._search.decision(topo.mask_from_nodes(ball), start + radius)
        rows.append([sorted(_decided(counter, ball, slot)), counter.stats.states])
    return rows


def test_beam_outputs_are_pinned():
    """The beam's choices and kept-state counts over 576 seeded queries
    (sync and three duty models, greedy and capped-exhaustive providers,
    widths 1-8) hash to a pinned digest, so a refactor of the beam must
    keep every decision and every ``stats.states``."""
    rows = []
    for topo, source in _pin_instances():
        for system in _PIN_SYSTEMS:
            schedule = None
            if system != "sync":
                model = system.removeprefix("duty-")
                schedule = build_wakeup_schedule(topo.node_ids, 6, seed=11, model=model)
            for name, provider in sorted(_BEAM_PROVIDERS.items()):
                for width in _PIN_WIDTHS:
                    config = SearchConfig(mode="beam", beam_width=width)
                    counter = TimeCounter(topo, schedule, provider, config)
                    for row in _pin_queries(counter, topo, source, schedule):
                        rows.append([topo.num_nodes, system, name, width, *row])
    assert len(rows) == 576
    canonical = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == _BEAM_PIN


def _paper_cell(config, system, rate, num_nodes):
    """``(topology, source, schedule)`` of the first repetition of a paper
    grid cell, deployed (and, in the duty-cycle system, scheduled) as the
    runner does."""
    deployment = DeploymentConfig(
        num_nodes=num_nodes,
        area_side=config.area_side,
        radius=config.radius,
        source_min_ecc=config.source_min_ecc,
        source_max_ecc=config.source_max_ecc,
    )
    seed = derive_seed(config.seed, system, rate, num_nodes, 0)
    topo, source = deploy_uniform(config=deployment, seed=seed)
    schedule = None
    if system == "duty":
        schedule = build_wakeup_schedule(
            topo.node_ids,
            rate=rate,
            seed=derive_seed(seed, "wakeup-schedule"),
            model=config.duty_model,
            model_seed=derive_seed(seed, "duty-model"),
        )
    return topo, source, schedule


def _paper_cell_work(system, rate):
    """OPT and G-OPT ``states``, ``expansions`` and ``memo_hits``, summed over
    the 50-150-node cells of a paper grid at sweep seed 2012."""
    config = SweepConfig(node_counts=(50, 100, 150), repetitions=1, seed=2012)
    line_up = default_policies(config, system)
    totals = {}
    for num_nodes in config.node_counts:
        topo, source, schedule = _paper_cell(config, system, rate, num_nodes)
        for name in ("OPT", "G-OPT"):
            policy = line_up[name]()
            run_broadcast(
                topo,
                source,
                policy,
                schedule=schedule,
                align_start=schedule is not None,
                engine="vectorized",
            )
            stats = policy.counter.stats
            for field in ("states", "expansions", "memo_hits"):
                totals[name, field] = totals.get((name, field), 0) + getattr(stats, field)
    return totals


def test_paper_sync_work_counters_are_pinned():
    """The paper-sync grid's search work.  The state memo (and the hop
    bounds it derives) may change how a bound is computed, not the work;
    a forced decision (one colour) searches nothing."""
    assert _paper_cell_work("sync", 1) == {
        ("OPT", "states"): 152,
        ("OPT", "expansions"): 173,
        ("OPT", "memo_hits"): 0,
        ("G-OPT", "states"): 222,
        ("G-OPT", "expansions"): 216,
        ("G-OPT", "memo_hits"): 0,
    }


def test_paper_duty50_work_counters_are_pinned():
    """The duty r=50 grid's search work, where most decisions are forced:
    one frontier node awake in a slot leaves one colour, taken unsearched."""
    assert _paper_cell_work("duty", 50) == {
        ("OPT", "states"): 271,
        ("OPT", "expansions"): 267,
        ("OPT", "memo_hits"): 0,
        ("G-OPT", "states"): 263,
        ("G-OPT", "expansions"): 255,
        ("G-OPT", "memo_hits"): 0,
    }


class TestForcedDecision:
    """``decide`` takes a lone colour without searching, and still fails
    loudly when the message cannot reach every node."""

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("name", sorted(_BEAM_PROVIDERS))
    def test_sync_source_round_searches_nothing(self, medium_deployment, name, mode):
        topo, source = medium_deployment
        provider = _BEAM_PROVIDERS[name]
        counter = TimeCounter(topo, None, provider, SearchConfig(mode=mode))
        assert counter.decide(topo.mask_from_nodes({source}), 1) == 0
        assert counter.stats.expansions == counter.stats.states == 0
        assert provider.color_classes(topo, {source}) == [frozenset({source})]

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    @pytest.mark.parametrize("name", sorted(_BEAM_PROVIDERS))
    def test_duty_slot_with_one_awake_frontier_node(self, small_deployment, name, mode):
        topo, source = small_deployment
        provider = _BEAM_PROVIDERS[name]
        schedule = WakeupSchedule(topo.node_ids, 4, seed=5)
        ball = frozenset(u for u, d in topo.hop_distances(source).items() if d <= 1)
        covered = topo.mask_from_nodes(ball)
        frontier = frontier_mask(topo, covered)
        window = window_for(schedule, topo)
        slot = next(
            t for t in range(1, 9) if (frontier & window.awake_mask(t)).bit_count() == 1
        )
        counter = TimeCounter(topo, schedule, provider, SearchConfig(mode=mode))
        assert counter.decide(covered, slot) == 0
        assert counter.stats.expansions == counter.stats.states == 0
        (color,) = [topo.nodes_from_mask(c) for c, _ in counter.color_masks_at(covered, slot)]
        assert provider.color_classes(topo, ball, schedule.awake_nodes(ball, slot)) == [color]

    @pytest.mark.parametrize("mode", ["exact", "beam"])
    def test_disconnected_topology_still_raises(self, mode):
        topo = WSNTopology.from_positions([(0, 0), (1, 0), (50, 50)], radius=2.0)
        policy = OptPolicy(search=SearchConfig(mode=mode))
        policy.prepare(topo, None, 0)
        with pytest.raises(UnreachableNodes):
            policy.select_advance(BroadcastState(topo, frozenset({0}), 1))


@pytest.mark.parametrize("system", ["sync", "duty-uniform", "duty-two-tier", "duty-zipf"])
@pytest.mark.parametrize("name", sorted(_BEAM_PROVIDERS))
def test_exact_decide_matches_rank_colors_on_every_broadcast_state(name, system):
    """On every decision of an exact-mode OPT/G-OPT broadcast over small
    uniform deployments, ``decide``'s colour is the first that the frozenset
    ``rank_colors`` ranks among the provider's classes, handed over in
    reverse order so that the ranking alone breaks ties."""
    policy_cls = OptPolicy if name == "OPT" else GreedyOptPolicy
    provider = _BEAM_PROVIDERS[name]
    config = SearchConfig(mode="exact")
    several = 0
    for topo, source in _beam_instances("uniform"):
        schedule = _reference_schedule(topo, system)
        policy = policy_cls(search=config)
        result = run_broadcast(topo, source, policy, schedule=schedule)
        counter = TimeCounter(topo, schedule, provider, config)
        reference = TimeCounter(topo, schedule, provider, config)
        covered = frozenset({source})
        for advance in result.advances:
            chosen = _decided(counter, covered, advance.time)
            assert chosen == advance.color
            awake = None if schedule is None else schedule.awake_nodes(covered, advance.time)
            colors = provider.color_classes(topo, covered, awake)
            assert reference.rank_colors(covered, advance.time, colors[::-1])[0][0] == chosen
            several += len(colors) > 1
            covered |= advance.receivers
    assert several > 0


class _TieExpandingCounter(TimeCounter):
    """The beam with every tie expanded: each state whose decision slot
    ties ``best`` adds all of its completions to ``firsts``.  The synchronous
    pick is ``min(firsts)`` and the duty-cycle pick ``firsts[0]``."""

    def _beam(self, beam, horizon, prune):
        full = self._full
        search = self._search
        best = math.inf
        firsts = []
        for _ in range(4 * self.topology.num_nodes + 8):
            if not beam:
                break
            successors = {}
            for state, slot, first in beam:
                if slot > best:
                    continue
                decision_slot, pool = search.decision(state, slot)
                if decision_slot > horizon or decision_slot > best:
                    continue
                ties_best = decision_slot == best
                next_slot = decision_slot + 1
                for _, reached in search.color_masks(state, pool):
                    covered = state | reached
                    if covered == full:
                        if decision_slot < best:
                            best, firsts = decision_slot, [first]
                        else:
                            firsts.append(first)
                    elif not ties_best:
                        previous = successors.get(covered)
                        if previous is None or next_slot < previous[0]:
                            successors[covered] = (next_slot, first, state)
            level = []
            for covered, (slot, first, parent) in successors.items():
                if slot < best:
                    search._hint(covered, parent)
                    level.append((covered, slot, first))
            beam = prune(level)
            search._drop_hints()
        if not firsts:
            return None
        return min(firsts) if self.schedule is None else firsts[0]


@pytest.mark.parametrize(("system", "rate"), [("sync", 1), ("duty", 10), ("duty", 50)])
def test_beam_tie_skip_keeps_every_pick(monkeypatch, system, rate):
    """Skipping the ties that cannot change the pick is exact: on every
    multi-colour decision of the sweep's OPT and G-OPT on the 200-node paper
    cell at seed 2012, ``decide`` returns the position that the
    tie-expanding beam returns."""
    config = SweepConfig(seed=2012)
    topo, source, schedule = _paper_cell(config, system, rate, 200)
    decisions = []
    decide = TimeCounter.decide

    def recording(self, covered, time):
        position = decide(self, covered, time)
        if len(self.color_masks_at(covered, time)) > 1:
            decisions.append((self, covered, time, position))
        return position

    line_up = default_policies(config, system)
    with monkeypatch.context() as patch:
        patch.setattr(TimeCounter, "decide", recording)
        for name in ("OPT", "G-OPT"):
            run_broadcast(
                topo,
                source,
                line_up[name](),
                schedule=schedule,
                align_start=schedule is not None,
                engine="vectorized",
            )
    assert len(decisions) >= 4
    oracles = {}
    for counter, covered, time, position in decisions:
        if counter not in oracles:
            oracles[counter] = _TieExpandingCounter(
                topo, schedule, counter.color_scheme, counter.config
            )
        assert oracles[counter].decide(covered, time) == position
