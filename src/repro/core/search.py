"""The one exact search: a mask-native branch-and-bound over ``(W, t)``.

:class:`ExactSearch` evaluates the time-counter recursion ``M(W, t)``
(Eqs. 4-8) over one :class:`~repro.core.coloring.ColorScheme`.  The time
counter's exact mode runs it over the policy's provider (greedy classes for
G-OPT, capped maximal colours for OPT); the exact solver tier runs it over
every maximal colour, where ``M`` is the certified optimum, and extracts the
canonical plan with :meth:`ExactSearch.plan`.  States are int bitmasks (bit
``i`` is ``topology.node_ids[i]``).  One piece of each kind: the decision
helper (:meth:`~ExactSearch.decision`, shared with the beam search), the
bound (:meth:`~ExactSearch.lower_bound`), the incumbent
(:meth:`~ExactSearch.descent`) and the children (distinct coverages, minus
dominated ones for the unrestricted exhaustive provider); docs/design.md,
"Exact search", argues why each is sound.

Colourings, frontiers and hop reaches are pure in ``(topology, masks)``, so
one search keeps them in a bounded state memo (:meth:`~ExactSearch.color_masks`,
:meth:`~ExactSearch.frontier`, :meth:`~ExactSearch.hop_reach`) that every
search path of the time counter reads; docs/design.md, "Search state".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.advance import Advance
from repro.core.coloring import ColorMasks, ColorScheme, frontier_mask
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.bitset import UNREACHABLE_HOPS, bitset_view
from repro.network.topology import WSNTopology

__all__ = ["ExactSearch", "SearchBudgetExceeded", "SearchStats", "UnreachableNodes"]


class SearchBudgetExceeded(RuntimeError):
    """An exact search exceeded its state budget (retry the time counter
    with ``mode="beam"`` or a larger budget)."""


class UnreachableNodes(RuntimeError):
    """Raised when uncovered nodes can never be reached (disconnected graph)."""


@dataclass
class SearchStats:
    """Work counters of a search, exposed for tests and the benchmarks.

    ``memo_hits`` counts revisits the exact search pruned; ``state_hits``
    counts colourings, frontiers and hop reaches served by the state memo.
    """

    expansions: int = 0
    memo_hits: int = 0
    states: int = 0
    state_hits: int = 0

    def reset(self) -> None:
        self.expansions = 0
        self.memo_hits = 0
        self.states = 0
        self.state_hits = 0


class ExactSearch:
    """Branch-and-bound over ``(W, t)`` for one topology, schedule and provider.

    ``schedule=None`` selects the synchronous system.  Every expansion is
    charged to ``stats`` (fresh by default); one past ``max_states`` in
    their running total raises :class:`SearchBudgetExceeded`, so a caller
    sharing its counters across searches shares the budget too.

    The state memo holds at most ``max_states`` items (a colouring counts
    one per colour, at least one; a frontier or a hop reach one each).  An
    entry that would overflow it empties the memo first, and one larger
    than the whole bound is not kept.  :meth:`clear_memo` empties it.
    """

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        scheme: ColorScheme,
        *,
        max_states: int,
        stats: SearchStats | None = None,
    ) -> None:
        self.topology = topology
        self.schedule = schedule
        self.scheme = scheme
        self.max_states = max_states
        self.stats = stats if stats is not None else SearchStats()
        self._view = bitset_view(topology)
        self._full = topology.full_mask
        self.window = None if schedule is None else window_for(schedule, self._view)
        self._dominance = scheme.mode == "exhaustive" and scheme.max_classes is None
        self._colorings: dict[tuple[int, int], list[ColorMasks]] = {}
        self._frontiers: dict[int, int] = {}
        self._reaches: dict[int, tuple[int, bool]] = {}
        self.memo_size = 0

    def clear_memo(self) -> None:
        """Drop every memoised colouring, frontier and hop reach."""
        self._colorings.clear()
        self._frontiers.clear()
        self._reaches.clear()
        self.memo_size = 0

    def _admit(self, cost: int) -> bool:
        """Make room for ``cost`` memo items; ``False`` if they never fit."""
        if cost > self.max_states:
            return False
        if self.memo_size + cost > self.max_states:
            self.clear_memo()
        self.memo_size += cost
        return True

    def color_masks(self, covered: int, pool: int) -> list[ColorMasks]:
        """The provider's ``(colour, receivers)`` masks for ``(W, pool)``, memoised.

        Callers must treat the returned list as immutable.
        """
        key = (covered, pool)
        pairs = self._colorings.get(key)
        if pairs is not None:
            self.stats.state_hits += 1
            return pairs
        pairs = self.scheme.color_masks(self.topology, covered, pool)
        if self._admit(max(len(pairs), 1)):
            self._colorings[key] = pairs
        return pairs

    def frontier(self, covered: int) -> int:
        """:func:`~repro.core.coloring.frontier_mask` of ``W``, memoised."""
        frontier = self._frontiers.get(covered)
        if frontier is not None:
            self.stats.state_hits += 1
            return frontier
        frontier = frontier_mask(self.topology, covered)
        if self._admit(1):
            self._frontiers[covered] = frontier
        return frontier

    def hop_reach(self, covered: int) -> tuple[int, bool]:
        """``(farthest, complete)`` for ``W``, memoised.

        ``farthest`` is the largest hop distance from ``W`` to a node it
        reaches (covered nodes read 0, so it is the largest over the
        uncovered ones; 0 for an empty ``W``), ``complete`` whether ``W``
        reaches every node.  One column minimum over the covered rows of
        the hop matrix.
        """
        reach = self._reaches.get(covered)
        if reach is not None:
            self.stats.state_hits += 1
            return reach
        nearest = self._view.nearest_hops(covered)
        farthest = int(nearest.max(initial=0))
        if farthest == UNREACHABLE_HOPS:
            reach = int(nearest[nearest != UNREACHABLE_HOPS].max(initial=0)), False
        else:
            reach = farthest, True
        if self._admit(1):
            self._reaches[covered] = reach
        return reach

    def decision(self, covered: int, time: int) -> tuple[int, int]:
        """The next decision ``(slot, sender pool)`` at or after ``time``.

        Synchronous: every covered node may send now.  Duty-cycle: the
        earliest slot at which a frontier node is awake, and the frontier
        nodes awake then.
        """
        if self.window is None:
            return time, covered
        frontier = self.frontier(covered)
        slot = self.window.next_awake(frontier, time)
        if slot is None:
            raise UnreachableNodes("no frontier node exists although uncovered nodes remain")
        return slot, frontier & self.window.awake_mask(slot)

    def lower_bound(self, covered: int, time: int) -> int | None:
        """Admissible bound on the completion slot from ``(W, t)``.

        ``None`` means some node can never receive the message.
        """
        if self.schedule is None:
            farthest, complete = self.hop_reach(covered)
            return time - 1 + farthest if complete else None
        topology = self.topology
        best = dict.fromkeys(topology.nodes_from_mask(covered), time - 1)
        heap = sorted((received, u) for u, received in best.items())
        while heap:
            received, u = heapq.heappop(heap)
            if received > best[u]:
                continue
            transmit = self.schedule.next_active_slot(u, received + 1)
            for v in topology.neighbors(u):
                if transmit < best.get(v, transmit + 1):
                    best[v] = transmit
                    heapq.heappush(heap, (transmit, v))
        if len(best) < topology.num_nodes:
            return None
        uncovered = topology.nodes_from_mask(self._full & ~covered)
        return max((best[v] for v in uncovered), default=time - 1)

    def colors(self, covered: int, time: int) -> tuple[int, list[tuple[int, int]]]:
        """The next decision slot and the provider's ``(colour, receivers)`` there."""
        slot, pool = self.decision(covered, time)
        pairs = self.color_masks(covered, pool)
        if not pairs:
            raise UnreachableNodes("no admissible colour although uncovered nodes remain")
        return slot, pairs

    def descent(self, covered: int, time: int) -> int:
        """Completion slot of following the provider's first colour throughout."""
        end = time - 1
        while covered != self._full:
            slot, pairs = self.colors(covered, time)
            covered |= pairs[0][1]
            end, time = slot, slot + 1
        return end

    def _charge(self) -> None:
        stats = self.stats
        if stats.expansions >= self.max_states:
            raise SearchBudgetExceeded(
                f"exact search exceeded {self.max_states} search states; use "
                "SearchConfig(mode='beam') for deployments of this size"
            )
        stats.expansions += 1
        stats.states += 1

    def _children(self, covered: int, pairs: list[tuple[int, int]]) -> list[int]:
        """Distinct child coverages, largest first (undominated ones only
        for the unrestricted exhaustive provider)."""
        children = list(dict.fromkeys(covered | reached for _, reached in pairs))
        children.sort(key=int.bit_count, reverse=True)
        if not self._dominance:
            return children
        kept: list[int] = []
        for child in children:
            if all(child | other != other for other in kept):
                kept.append(child)
        return kept

    def minimum(self, covered: int, time: int) -> int:
        """``M(W, t)``: the earliest completion slot of the recursion.

        ``t - 1`` when ``W`` is complete.  Raises :class:`UnreachableNodes`
        for a disconnected topology and :class:`SearchBudgetExceeded` past
        the budget.
        """
        full = self._full
        if covered == full:
            return time - 1
        incumbent = self.descent(covered, time)
        # A fully explored state has given the incumbent everything its
        # subtree holds (the incumbent only decreases), so a revisit prunes.
        visited: set[tuple[int, int]] = set()

        def descend(covered: int, time: int) -> None:
            nonlocal incumbent
            if self.lower_bound(covered, time) >= incumbent:
                return
            key = (covered, time)
            if key in visited:
                self.stats.memo_hits += 1
                return
            visited.add(key)
            self._charge()
            slot, pairs = self.colors(covered, time)
            if slot >= incumbent:
                return
            for child in self._children(covered, pairs):
                if child == full:
                    incumbent = slot  # no sibling can complete before ``slot``
                    return
                descend(child, slot + 1)

        descend(covered, time)
        return incumbent

    def plan(self, covered: int, time: int, deadline: int) -> tuple[Advance, ...] | None:
        """The first leaf completing by ``deadline`` in canonical colour order.

        Depth-first over the provider's colours in their own order, every
        colour tried (a plan records which colour of the full list it
        took); ``None`` when nothing completes by ``deadline``.
        """
        full = self._full
        nodes = self.topology.nodes_from_mask
        # States proved unable to finish by the deadline; revisits re-fail.
        dead: set[tuple[int, int]] = set()
        prefix: list[Advance] = []

        def descend(covered: int, time: int) -> bool:
            bound = self.lower_bound(covered, time)
            if bound is None or bound > deadline:
                return False
            key = (covered, time)
            if key in dead:
                return False
            self._charge()
            slot, pairs = self.colors(covered, time)
            if slot <= deadline:
                for index, (color, reached) in enumerate(pairs, start=1):
                    prefix.append(
                        Advance(
                            time=slot,
                            color=nodes(color),
                            receivers=nodes(reached),
                            color_index=index,
                            num_colors=len(pairs),
                        )
                    )
                    child = covered | reached
                    if child == full or descend(child, slot + 1):
                        return True
                    prefix.pop()
            dead.add(key)
            return False

        if covered != full and not descend(covered, time):
            return None
        return tuple(prefix)
