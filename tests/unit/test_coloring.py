"""Unit tests for repro.core.coloring (Algorithm 1 and Eq. 1/2/3)."""

from __future__ import annotations

import pytest

from repro.core.advance import BroadcastState
from repro.core.coloring import (
    ColorScheme,
    enumerate_color_classes,
    frontier_candidates,
    frontier_mask,
    greedy_color_classes,
)
from repro.core.policies import greedy_decision_classes
from repro.dutycycle.models import build_wakeup_schedule
from repro.dutycycle.schedule import WakeupSchedule
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies
from repro.network.deployment import deploy_uniform
from repro.network.interference import conflict_free, has_conflict, receivers_of
from repro.network.topology import WSNTopology
from repro.sim import run_broadcast
from repro.utils.rng import make_rng


class TestFrontierCandidates:
    def test_only_source_at_start(self, figure1):
        topo, source = figure1
        assert frontier_candidates(topo, frozenset({source})) == [source]

    def test_sorted_by_uncovered_receivers(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert frontier_candidates(topo, covered) == [0, 1, 2]

    def test_nodes_without_uncovered_neighbors_excluded(self, figure2):
        topo, _ = figure2
        covered = frozenset({1, 2, 3, 4, 5})
        assert frontier_candidates(topo, covered) == []

    def test_awake_filter(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert frontier_candidates(topo, covered, awake=[1, 2]) == [1, 2]
        assert frontier_candidates(topo, covered, awake=[]) == []

    def test_uncovered_nodes_never_candidates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0})
        candidates = frontier_candidates(topo, covered)
        assert set(candidates) <= covered


class TestGreedyColorClasses:
    def test_figure1_round_two_classes(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert greedy_color_classes(topo, covered) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_figure1_pipeline_class(self, figure1):
        """After {3, 4, 10} are covered, nodes 0 and 4 share the first colour."""
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2, 3, 4, 10})
        classes = greedy_color_classes(topo, covered)
        assert classes[0] == frozenset({0, 4})

    def test_empty_when_complete(self, figure2):
        topo, _ = figure2
        assert greedy_color_classes(topo, topo.node_set) == []

    def test_classes_partition_candidates(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        candidates = set(frontier_candidates(topo, covered))
        classes = greedy_color_classes(topo, covered)
        union = set().union(*classes)
        assert union == candidates
        assert sum(len(c) for c in classes) == len(candidates)

    def test_classes_are_interference_free(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        for color in greedy_color_classes(topo, covered):
            assert conflict_free(topo, color, covered)

    def test_later_class_nodes_conflict_with_previous_class(self, medium_deployment):
        """Eq. (1) constraint 4: a node is deferred only because of a conflict."""
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        classes = greedy_color_classes(topo, covered)
        for index in range(1, len(classes)):
            previous = classes[index - 1]
            for u in classes[index]:
                assert any(has_conflict(topo, u, v, covered) for v in previous)

    def test_duty_cycle_awake_restriction(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        classes = greedy_color_classes(topo, covered, awake=[1])
        assert classes == [frozenset({1})]

    def test_first_class_has_most_receivers(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        classes = greedy_color_classes(topo, covered)
        counts = [len(topo.uncovered_neighbors(u, covered)) for u in classes[0]]
        best = max(
            len(topo.uncovered_neighbors(u, covered))
            for u in frontier_candidates(topo, covered)
        )
        assert max(counts) == best


class TestEnumerateColorClasses:
    def test_every_class_is_maximal_and_conflict_free(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        candidates = set(frontier_candidates(topo, covered))
        classes = enumerate_color_classes(topo, covered)
        assert classes  # at least one admissible colour
        for color in classes:
            assert conflict_free(topo, color, covered)
            for extra in candidates - color:
                assert not conflict_free(topo, color | {extra}, covered)

    def test_figure1_enumeration_is_the_conflict_clique(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        classes = enumerate_color_classes(topo, covered)
        assert sorted(classes, key=lambda c: tuple(sorted(c))) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_cap_keeps_greedy_classes_available(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        capped = enumerate_color_classes(topo, covered, max_classes=2)
        greedy_first = greedy_color_classes(topo, covered)[0]
        assert greedy_first in capped

    def test_empty_for_complete_coverage(self, figure2):
        topo, _ = figure2
        assert enumerate_color_classes(topo, topo.node_set) == []


class TestColorScheme:
    def test_greedy_mode_delegates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        scheme = ColorScheme(mode="greedy")
        assert scheme.color_classes(topo, covered) == greedy_color_classes(topo, covered)

    def test_exhaustive_mode_delegates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        scheme = ColorScheme(mode="exhaustive")
        assert set(scheme.color_classes(topo, covered)) == set(
            enumerate_color_classes(topo, covered)
        )

    def test_unknown_mode_rejected(self, figure1):
        topo, source = figure1
        scheme = ColorScheme(mode="bogus")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            scheme.color_classes(topo, frozenset({source}))

    def test_each_scheme_offers_its_own_colours(self):
        # Covered a..d (0-3), uncovered x, y, z (4-6): a-b share x, b-c share
        # y and c-d share z, so the conflict graph is the path a-b-c-d.
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]
        topo = WSNTopology.from_edges(edges, {u: (float(u), 0.0) for u in range(7)})
        covered = frozenset({0, 1, 2, 3})
        assert ColorScheme("greedy").color_classes(topo, covered) == [
            frozenset({1, 3}),
            frozenset({0, 2}),
        ]
        assert ColorScheme("exhaustive").color_classes(topo, covered) == [
            frozenset({0, 2}),
            frozenset({0, 3}),
            frozenset({1, 3}),
        ]


# ----------------------------------------------------------------------
# Differential tests: the mask-native core against the frozenset Algorithm 1
# ----------------------------------------------------------------------
def _random_udg(seed: int, num_nodes: int) -> WSNTopology:
    """A seeded UDG whose node ids are not bit indices (ids 3i + 7)."""
    rng = make_rng(seed)
    positions = rng.uniform(0.0, 40.0, size=(num_nodes, 2))
    ids = [3 * i + 7 for i in range(num_nodes)]
    return WSNTopology.from_positions(positions, radius=9.0, node_ids=ids)


def _random_states(topology: WSNTopology, seed: int, count: int = 12):
    """Seeded ``(W, awake)`` pairs: BFS balls and random subsets, with and
    without a random awake pool (which may hold uncovered nodes too)."""
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    for k in range(count):
        if k % 2:
            size = int(rng.integers(1, len(ids) + 1))
            covered = frozenset(int(u) for u in rng.choice(ids, size=size, replace=False))
        else:
            source = int(rng.choice(ids))
            radius = int(rng.integers(0, 6))
            covered = frozenset(
                u for u, d in topology.hop_distances(source).items() if d <= radius
            )
        awake = None
        if k % 3:
            size = int(rng.integers(0, len(ids) + 1))
            awake = frozenset(int(u) for u in rng.choice(ids, size=size, replace=False))
        yield covered, awake


def _state_awake_at_slot_one(topology, covered, awake) -> BroadcastState:
    """``(W, 1)`` under a schedule whose slot 1 wakes exactly ``awake``
    (synchronous when ``awake`` is None)."""
    if awake is None:
        return BroadcastState(topology, covered, 1)
    slots = {u: [1] if u in awake else [2] for u in topology.node_ids}
    return BroadcastState(topology, covered, 1, WakeupSchedule.from_explicit(slots, rate=2))


def _oracle_candidates(topology, covered, awake=None) -> list[int]:
    pool = covered if awake is None else covered & awake
    gains = {u: len(topology.uncovered_neighbors(u, covered)) for u in pool}
    return sorted((u for u in pool if gains[u]), key=lambda u: (-gains[u], u))


def _oracle_conflicts(topology, candidates, covered) -> dict[int, set[int]]:
    """The conflict graph by the pairwise test of Eq. 1, constraint 3."""
    receivers = {u: topology.uncovered_neighbors(u, covered) for u in candidates}
    return {
        u: {v for v in candidates if v != u and receivers[u] & receivers[v]}
        for u in candidates
    }


def _oracle_greedy(topology, covered, awake=None) -> list[frozenset[int]]:
    """Algorithm 1 as the frozenset loop: pack through the conflict graph."""
    candidates = _oracle_candidates(topology, covered, awake)
    conflicts = _oracle_conflicts(topology, candidates, covered)
    classes = []
    remaining = candidates
    while remaining:
        current: set[int] = set()
        deferred = []
        for u in remaining:
            if conflicts[u] & current:
                deferred.append(u)
            else:
                current.add(u)
        classes.append(frozenset(current))
        remaining = deferred
    return classes


def _set_bron_kerbosch(
    vertices: list[int], conflicts: dict[int, set[int]], limit: int | None
) -> list[frozenset[int]]:
    """All maximal independent sets of the conflict graph (maximal cliques of
    its complement), via Bron-Kerbosch with pivoting on the complement graph.

    The set-algebra definition of OPT's capped colour list: every complement
    set is built up front, the pivot is ``max`` over ``p | x`` (the first
    maximum in set iteration order) and each branch runs in ascending id
    order.  The mask enumeration must replay it exactly.
    """
    vertex_set = set(vertices)
    complement = {u: (vertex_set - conflicts[u] - {u}) for u in vertices}
    results: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> bool:
        """Returns False when the enumeration limit is reached."""
        if not p and not x:
            results.append(frozenset(r))
            return limit is None or len(results) < limit
        pivot = max(p | x, key=lambda u: len(complement[u] & p))
        for v in sorted(p - complement[pivot]):
            if not expand(r | {v}, p & complement[v], x & complement[v]):
                return False
            p = p - {v}
            x = x | {v}
        return True

    expand(set(), set(vertices), set())
    return results


def _oracle_enumeration(topology, covered, awake=None, max_classes=None):
    candidates = _oracle_candidates(topology, covered, awake)
    if not candidates:
        return []
    conflicts = _oracle_conflicts(topology, candidates, covered)
    sets = _set_bron_kerbosch(candidates, conflicts, max_classes)
    if max_classes is not None:
        sets += [c for c in _oracle_greedy(topology, covered, awake) if c not in sets]
    return sorted(sets, key=lambda s: (-len(s), tuple(sorted(s))))


MASK_CORE_GRAPHS = [
    _random_udg(seed, num_nodes)
    for seed, num_nodes in ((1, 30), (2, 60), (3, 90), (4, 120))
]


@pytest.mark.parametrize("topology", MASK_CORE_GRAPHS, ids=lambda t: f"n{t.num_nodes}")
class TestMaskCoreDifferential:
    def test_candidates_and_frontier(self, topology):
        for covered, awake in _random_states(topology, seed=topology.num_nodes):
            assert frontier_candidates(topology, covered, awake) == _oracle_candidates(
                topology, covered, awake
            )
            frontier = frozenset(
                u for u in covered if topology.uncovered_neighbors(u, covered)
            )
            mask = frontier_mask(topology, topology.mask_from_nodes(covered))
            assert topology.nodes_from_mask(mask) == frontier

    def test_greedy_classes_equal_algorithm1_through_conflict_graph(self, topology):
        for covered, awake in _random_states(topology, seed=topology.num_nodes + 1):
            expected = _oracle_greedy(topology, covered, awake)
            assert greedy_color_classes(topology, covered, awake) == expected
            state = _state_awake_at_slot_one(topology, covered, awake)
            assert [
                topology.nodes_from_mask(color) for color, _ in greedy_decision_classes(state)
            ] == greedy_color_classes(topology, covered, awake)

    @pytest.mark.parametrize("max_classes", [None, 1, 4, 32])
    def test_enumeration_equals_the_frozenset_output(self, topology, max_classes):
        for covered, awake in _random_states(topology, seed=topology.num_nodes + 2):
            if max_classes is None and len(_oracle_candidates(topology, covered, awake)) > 20:
                continue  # uncapped enumeration is exponential in the frontier
            assert enumerate_color_classes(
                topology, covered, awake, max_classes=max_classes
            ) == _oracle_enumeration(topology, covered, awake, max_classes)

    @pytest.mark.parametrize(
        "scheme", [ColorScheme("greedy"), ColorScheme("exhaustive", 8)], ids=["greedy", "exhaustive"]
    )
    def test_receivers_masks_equal_receivers_of(self, topology, scheme):
        for covered, awake in _random_states(topology, seed=topology.num_nodes + 3):
            covered_mask = topology.mask_from_nodes(covered)
            pool = covered if awake is None else covered & awake
            pairs = scheme.color_masks(topology, covered_mask, topology.mask_from_nodes(pool))
            assert [topology.nodes_from_mask(c) for c, _ in pairs] == scheme.color_classes(
                topology, covered, awake
            )
            for color, receivers in pairs:
                expected = receivers_of(topology, topology.nodes_from_mask(color), covered)
                assert receivers == topology.mask_from_nodes(expected)


# ----------------------------------------------------------------------
# The capped enumeration at paper scale: §V-A density, >= 60 candidates
# ----------------------------------------------------------------------
def _paper_udg(seed: int, num_nodes: int, *, sparse_ids: bool = False) -> WSNTopology:
    """A UDG at the §V-A density (50 x 50 area, radius 10).

    With ``sparse_ids`` the node ids are a shuffled sample of ``[0, 100 n)``,
    so bit ``i`` is not id ``i`` and position order is not id order.
    """
    rng = make_rng(seed)
    positions = rng.uniform(0.0, 50.0, size=(num_nodes, 2))
    ids = None
    if sparse_ids:
        ids = [int(u) for u in rng.choice(100 * num_nodes, size=num_nodes, replace=False)]
    return WSNTopology.from_positions(positions, radius=10.0, node_ids=ids)


def _paper_states(topology: WSNTopology, seed: int):
    """``(large, small)`` seeded ``(W, awake)`` states.

    ``large`` holds four synchronous and four awake-pool states with at
    least 60 relay candidates each: BFS balls (the shape OPT's search
    meets) and random halves, the awake pool a random 60% of the nodes.
    ``small`` holds states with at most 20 candidates, for the uncapped
    enumeration.
    """
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    large: dict[bool, list] = {False: [], True: []}
    small = []
    for k in range(200):
        if k % 2:
            covered = frozenset(
                int(u) for u in rng.choice(ids, size=len(ids) // 2, replace=False)
            )
        else:
            source, radius = int(rng.choice(ids)), int(rng.integers(1, 5))
            covered = frozenset(
                u for u, d in topology.hop_distances(source).items() if d <= radius
            )
        awake = frozenset(
            int(u) for u in rng.choice(ids, size=int(0.6 * len(ids)), replace=False)
        )
        for pool in (None, awake):
            count = len(_oracle_candidates(topology, covered, pool))
            if count >= 60 and len(large[pool is not None]) < 4:
                large[pool is not None].append((covered, pool))
            elif 0 < count <= 20 and len(small) < 6:
                small.append((covered, pool))
        if all(len(states) == 4 for states in large.values()) and len(small) == 6:
            return large[False] + large[True], small
    raise AssertionError("the seeded states do not cover every shape")


PAPER_GRAPHS = [
    _paper_udg(21, 200),
    _paper_udg(22, 250),
    _paper_udg(23, 300, sparse_ids=True),
]


def test_paper_graph_with_sparse_ids_has_bits_apart_from_ids():
    topology = PAPER_GRAPHS[-1]
    assert any(topology.index_of(u) != u for u in topology.node_ids)


@pytest.mark.parametrize("topology", PAPER_GRAPHS, ids=lambda t: f"n{t.num_nodes}")
class TestPaperScaleEnumeration:
    @pytest.mark.parametrize("max_classes", [1, 4, 32])
    def test_capped_enumeration_replays_the_set_oracle(self, topology, max_classes):
        large, _ = _paper_states(topology, seed=topology.num_nodes)
        for covered, awake in large:
            assert enumerate_color_classes(
                topology, covered, awake, max_classes=max_classes
            ) == _oracle_enumeration(topology, covered, awake, max_classes)

    def test_uncapped_enumeration_replays_the_set_oracle(self, topology):
        _, small = _paper_states(topology, seed=topology.num_nodes)
        for covered, awake in small:
            assert enumerate_color_classes(topology, covered, awake) == _oracle_enumeration(
                topology, covered, awake
            )


@pytest.mark.parametrize("rate", [None, 10], ids=["sync", "duty10"])
def test_opt_search_states_replay_the_set_oracle(monkeypatch, rate):
    """Every colour list the sweep's OPT asks for on one 150-node broadcast.

    The states OPT's beam meets are where the complement sets' iteration
    order shows: on this deployment an eager complement built by another
    set expression changes at least one capped list.
    """
    topology, source = deploy_uniform(150, seed=4)
    schedule = None if rate is None else build_wakeup_schedule(topology.node_ids, rate, seed=4)
    calls = []
    color_masks = ColorScheme.color_masks

    def recording(self, topology, covered, pool):
        if self.mode == "exhaustive":
            calls.append((self.max_classes, covered, pool))
        return color_masks(self, topology, covered, pool)

    with monkeypatch.context() as patch:
        patch.setattr(ColorScheme, "color_masks", recording)
        opt = default_policies(SweepConfig(), "sync" if rate is None else "duty")["OPT"]()
        run_broadcast(topology, source, opt, schedule=schedule, engine="vectorized")
    assert len(calls) >= 40
    for max_classes, covered_mask, pool_mask in calls:
        covered = topology.nodes_from_mask(covered_mask)
        awake = topology.nodes_from_mask(pool_mask)
        assert enumerate_color_classes(
            topology, covered, awake, max_classes=max_classes
        ) == _oracle_enumeration(topology, covered, awake, max_classes)
