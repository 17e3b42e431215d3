"""The beam's hop bound derived from a parent's far set equals a fresh column minimum.

``ExactSearch.hop_reach`` answers a hinted child from its parent's far set
and memoised hop balls (docs/design.md, "Lower bound").  These tests run
seeded beam and exact searches and check every answer, every hinted child
and every memoised far set against ``WSNTopology.nearest_hops``.
"""

from __future__ import annotations

import pytest

from repro.core.coloring import ColorScheme
from repro.core.search import ExactSearch
from repro.core.time_counter import SearchConfig, TimeCounter
from repro.dutycycle.models import build_wakeup_schedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.topology import UNREACHABLE_HOPS, WSNTopology

_PROVIDERS = (ColorScheme("greedy"), ColorScheme("exhaustive", 32))


def _reference(topology, covered: int) -> tuple[int, bool]:
    """``(farthest, complete)`` of ``W`` from one column minimum."""
    nearest = topology.nearest_hops(covered)
    reached = nearest[nearest != UNREACHABLE_HOPS]
    return int(reached.max(initial=0)), len(reached) == len(nearest)


def _far_set(topology, covered: int) -> int:
    """The uncovered nodes at the farthest hop from ``W``."""
    nearest = topology.nearest_hops(covered)
    return topology.mask_from_bool(nearest == int(nearest.max(initial=0))) & ~covered


class _Checked:
    """Wraps a counter's search: every hop reach is checked as it is
    answered, and every hinted ``(child, parent)`` pair is recorded."""

    def __init__(self, search: ExactSearch) -> None:
        self.search = search
        self.topology = search.topology
        self.pairs: list[tuple[int, int]] = []
        self.answers = 0
        hop_reach, hint = search.hop_reach, search._hint

        def checked_reach(covered: int) -> tuple[int, bool]:
            reach = hop_reach(covered)
            assert reach == _reference(self.topology, covered)
            self.answers += 1
            return reach

        def recorded_hint(child: int, parent: int) -> None:
            self.pairs.append((child, parent))
            hint(child, parent)

        search.hop_reach = checked_reach
        search._hint = recorded_hint

    def check_memo(self) -> None:
        search = self.search
        assert search.memo_size <= search.max_states
        assert not search._parents  # every hint was read or dropped
        for covered, far in search._far_sets.items():
            assert far == _far_set(self.topology, covered)
        for key, ball in search._balls.items():
            radius, index = divmod(key, self.topology.num_nodes)
            hops = search.topology.hop_matrix[index].view("uint16")
            assert ball == self.topology.mask_from_bool(hops <= radius)


def _deployment(num_nodes: int, seed: int):
    config = DeploymentConfig(
        num_nodes=num_nodes, area_side=50.0, radius=10.0, source_min_ecc=5, source_max_ecc=8
    )
    return deploy_uniform(config=config, seed=seed)


_CASES = [
    ("sync", "beam", 250_000),
    ("sync", "beam", 64),
    ("duty", "beam", 250_000),
    ("duty", "beam", 64),
    ("sync", "exact", 250_000),
]


@pytest.mark.parametrize(("system", "mode", "max_states"), _CASES)
def test_derived_reach_equals_the_column_minimum(system, mode, max_states):
    """Seeded paper-geometry searches, n = 50-300: ``decide`` on the
    source's one- and two-hop balls, each under both providers.  Every
    answer, every hinted child and every far set matches a fresh column
    minimum, no hint outlives its ranking, and the memo stays within
    ``max_states``.  The exact case ranks through ``ExactSearch.minimum``,
    which hints its children in the synchronous system, under the greedy
    provider of the worked-example tables (the capped exhaustive one costs
    ~40 s here)."""
    derived = h1_parents = hinted = answers = 0
    for num_nodes, seed in ((50, 1), (50, 11), (100, 2), (150, 3), (200, 4), (250, 6), (300, 5)):
        topo, source = _deployment(num_nodes, seed)
        schedule = None
        if system == "duty":
            schedule = build_wakeup_schedule(topo.node_ids, 10, seed=seed)
        start = 1 if schedule is None else schedule.next_active_slot(source, 1)
        hops = topo.hop_distances(source)
        for provider in _PROVIDERS if mode == "beam" else _PROVIDERS[:1]:
            config = SearchConfig(mode=mode, max_states=max_states)
            counter = TimeCounter(topo, schedule, provider, config)
            checked = _Checked(counter._search)
            for radius in (1, 2):
                ball = topo.mask_from_nodes(u for u, d in hops.items() if d <= radius)
                slot, _ = counter._search.decision(ball, start + radius)
                counter.decide(ball, slot)
                checked.check_memo()
            hinted += len(checked.pairs)
            answers += checked.answers
            for child, parent in checked.pairs:
                counter._search.hop_reach(child)
                h1_parents += _reference(checked.topology, parent)[0] == 1
            checked.check_memo()
            derived += counter.stats.derived_bounds
    assert hinted and answers
    assert derived > 0
    assert h1_parents > 0


def test_parent_at_bound_one_gives_every_child_bound_one():
    topo, source = _deployment(100, 7)
    hops = topo.hop_distances(source)
    eccentricity = max(hops.values())
    parent = topo.mask_from_nodes(u for u, d in hops.items() if d < eccentricity)
    assert _reference(topo, parent) == (1, True)
    far = [u for u, d in hops.items() if d == eccentricity]
    search = ExactSearch(topo, None, ColorScheme("greedy"), max_states=1_000)
    for receivers in (far[:1], far[: len(far) // 2 + 1], far):
        child = parent | topo.mask_from_nodes(receivers)
        search.clear_memo()
        search._hint(child, parent)
        assert search.hop_reach(child) == _reference(topo, child)
    assert search.stats.derived_bounds == 3


def test_disconnected_parent_falls_back_to_the_column_minimum():
    """A parent that misses a component gives its child no derivation."""
    positions = {i: (float(i), 0.0) for i in range(8)}
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    topo = WSNTopology.from_edges(edges, positions)
    search = ExactSearch(topo, None, ColorScheme("greedy"), max_states=100)
    parent, child = topo.mask_from_nodes({0}), topo.mask_from_nodes({0, 1})
    assert search.hop_reach(parent) == (3, False)
    search._hint(child, parent)
    assert search.hop_reach(child) == _reference(topo, child) == (2, False)
    assert search.stats.derived_bounds == 0


def test_a_state_hinted_as_its_own_child_is_measured():
    """A colour without receivers leaves ``W`` unchanged; its hint is
    dropped, so the memo counts only what it holds."""
    topo, source = _deployment(50, 1)
    search = ExactSearch(topo, None, ColorScheme("greedy"), max_states=100)
    covered = topo.mask_from_nodes({source})
    search._hint(covered, covered)
    assert search.memo_size == 0
    assert search.hop_reach(covered) == _reference(topo, covered)
    assert search.memo_size == len(search._reaches) + len(search._far_sets) == 2
    assert search.stats.derived_bounds == 0
