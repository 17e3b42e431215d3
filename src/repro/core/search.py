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
search path of the time counter reads; docs/design.md, "Search state".  A
hop reach is measured by a column minimum over the covered rows only for a
state without a parent hint; a hinted child's reach follows from its
parent's far set and a few memoised hop balls (docs/design.md, "Lower
bound").  Hints are internal: the time counter's beam and
:meth:`~ExactSearch.minimum` record them for the children they rank next.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.advance import Advance
from repro.core.coloring import ColorMasks, ColorScheme, frontier_mask
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.topology import UNREACHABLE_HOPS, WSNTopology

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
    counts colourings, frontiers and hop reaches served by the state memo;
    ``derived_bounds`` counts hop reaches answered from a parent's far set
    instead of a column minimum.
    """

    expansions: int = 0
    memo_hits: int = 0
    states: int = 0
    state_hits: int = 0
    derived_bounds: int = 0

    def reset(self) -> None:
        self.expansions = 0
        self.memo_hits = 0
        self.states = 0
        self.state_hits = 0
        self.derived_bounds = 0


class ExactSearch:
    """Branch-and-bound over ``(W, t)`` for one topology, schedule and provider.

    ``schedule=None`` selects the synchronous system.  Every expansion is
    charged to ``stats`` (fresh by default); one past ``max_states`` in
    their running total raises :class:`SearchBudgetExceeded`, so a caller
    sharing its counters across searches shares the budget too.

    The state memo holds at most ``max_states`` items (a colouring counts
    one per colour, at least one; a frontier, a hop reach, a far set, a hop
    ball and a parent hint one each).  An entry that would overflow it
    empties the memo first, and one larger than the whole bound is not
    kept.  A hint is refunded when it answers or is dropped
    (:meth:`_drop_hints`).  :meth:`clear_memo` empties it.
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
        self._full = topology.full_mask
        self.window = None if schedule is None else window_for(schedule, topology)
        self._dominance = scheme.mode == "exhaustive" and scheme.max_classes is None
        self._colorings: dict[tuple[int, int], list[ColorMasks]] = {}
        self._frontiers: dict[int, int] = {}
        self._reaches: dict[int, tuple[int, bool]] = {}
        self._far_sets: dict[int, int] = {}
        self._balls: dict[int, int] = {}
        self._parents: dict[int, int] = {}
        self.memo_size = 0

    def clear_memo(self) -> None:
        """Drop every memoised colouring, frontier, hop reach, far set, hop
        ball and parent hint."""
        self._colorings.clear()
        self._frontiers.clear()
        self._reaches.clear()
        self._far_sets.clear()
        self._balls.clear()
        self._parents.clear()
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
        reaches every node.  A ``W`` with a parent hint (:meth:`_hint`)
        whose parent reaches every node is derived from the parent's far
        set; any other ``W`` takes one column minimum over its covered rows
        of the hop matrix.
        """
        reach = self._reaches.get(covered)
        if reach is not None:
            self.stats.state_hits += 1
            return reach
        parent = self._parents.pop(covered, None)
        if parent is not None:
            self.memo_size -= 1
            reach = self._derived_reach(covered, parent)
            if reach is not None:
                return reach
        return self._measured_reach(covered)[0]

    def _hint(self, child: int, parent: int) -> None:
        """Record that ``child`` is ``parent`` plus receivers of one advance.

        Every node of ``child & ~parent`` must neighbour ``parent``, as an
        advance's receivers do; :meth:`hop_reach` then derives ``child``'s
        reach from ``parent``'s.  A child already reached or hinted keeps
        what it has, and a child equal to its parent gets no hint.  Callers
        hint only children they are about to rank and drop the unread
        hints after ranking (:meth:`_drop_hints`).
        """
        if (
            child != parent
            and child not in self._reaches
            and child not in self._parents
            and self._admit(1)
        ):
            self._parents[child] = parent

    def _drop_hints(self) -> None:
        """Drop the hints no reach has read, and refund their items."""
        self.memo_size -= len(self._parents)
        self._parents.clear()

    def _measured_reach(self, covered: int) -> tuple[tuple[int, bool], int]:
        """:meth:`hop_reach` by one column minimum, and the far set.

        The far set is the uncovered nodes at the farthest hop; it is
        memoised beside the reach for a ``W`` that reaches every node.
        """
        nearest = self.topology.nearest_hops(covered)
        farthest = int(nearest.max(initial=0))
        if farthest == UNREACHABLE_HOPS:
            reach = int(nearest[nearest != UNREACHABLE_HOPS].max(initial=0)), False
            far = 0
        else:
            reach = farthest, True
            far = self.topology.mask_from_bool(nearest == farthest) & ~covered
            if self._admit(1):
                self._far_sets[covered] = far
        if covered not in self._reaches and self._admit(1):
            self._reaches[covered] = reach
        return reach, far

    def _derived_reach(self, child: int, parent: int) -> tuple[int, bool] | None:
        """``child``'s reach from ``parent``'s far set; ``None`` if ``parent``
        does not reach every node.

        The receivers ``R = child & ~parent`` neighbour ``parent``, so no
        node comes closer than one hop less: a parent at bound ``h`` gives
        ``h - 1`` when every far node lies within ``h - 1`` hops of ``R``,
        and ``h`` otherwise, with the far nodes ``R`` missed as the child's
        far set.  A parent without a memoised far set takes one column
        minimum first.
        """
        reach = self._reaches.get(parent)
        far = self._far_sets.get(parent)
        if reach is None or (far is None and reach[1] and reach[0] > 1):
            reach, far = self._measured_reach(parent)
        farthest, complete = reach
        if not complete:
            return None
        self.stats.derived_bounds += 1
        if child == self._full:
            reach = 0, True
        elif farthest <= 1:
            reach = 1, True
        else:
            received = child & ~parent
            radius = farthest - 1
            balls = self._balls
            base = radius * self.topology.num_nodes
            missed = 0
            while far:
                low = far & -far
                index = low.bit_length() - 1
                ball = balls.get(base + index)
                if ball is None:
                    ball = self._ball(index, radius)
                if not received & ball:
                    missed |= low
                far ^= low
            if missed:
                reach = farthest, True
                if self._admit(1):
                    self._far_sets[child] = missed
            else:
                reach = radius, True
        if self._admit(1):
            self._reaches[child] = reach
        return reach

    def _ball(self, index: int, radius: int) -> int:
        """Nodes within ``radius`` hops of bit ``index``, memoised under
        ``radius * n + index``."""
        ball = self.topology.ball_mask(index, radius)
        if self._admit(1):
            self._balls[radius * self.topology.num_nodes + index] = ball
        return ball

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
        hint = self._hint if self.window is None else None
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
                if hint is not None:
                    hint(child, covered)
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
