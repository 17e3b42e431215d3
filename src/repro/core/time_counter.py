"""The time counter ``M`` (Eqs. 4-8): heuristic evaluation of colour choices.

``M(W, t)`` is the earliest end round/slot of a broadcast that currently
covers ``W`` at time ``t`` and, from now on, always selects the colour whose
recursive completion time is minimal.  The OPT target evaluates ``M`` over
*every* admissible colour (Eq. 5/6); the G-OPT target restricts the
candidates to the greedy colour classes (Eq. 7/8).

Tractability
------------
The exact recursion is exponential in the number of advances.  The paper
computes ``M`` "off-line in the simulator" without describing how it is made
tractable; this implementation provides

* ``mode="exact"`` — the branch-and-bound of :mod:`repro.core.search`
  over the counter's own colour provider, with a hard state-count budget
  (used in tests and on the paper's worked examples, where it is cheap;
  the exact solver tier runs the same search over every maximal colour).
  :meth:`TimeCounter.completion_time` (Eq. 4's ``M(W, t)``) and
  :meth:`TimeCounter.rank_colors` are its entries, and
* ``mode="beam"``  — a beam search over coverage states (default width 8)
  that preserves the "evaluate each candidate colour by its recursive
  completion time" semantics while bounding work.  It is reached through
  :meth:`TimeCounter.decide` only; ``tests/unit/test_time_counter.py``
  compares its decisions with the exact mode's on small instances.

Both searches jump from one decision to the next with the same helper,
:meth:`~repro.core.search.ExactSearch.decision`: by coverage monotonicity
(a larger covered set never completes later) transmitting never hurts, so
the duty-cycle search moves to the next slot at which *some* frontier node
is awake instead of branching over idle waits.  In the synchronous system
the helper returns the slot it is given, so the beam is one loop,
:meth:`TimeCounter._beam`, for first-colour selection in both systems;
they differ in their pruning rule and how they read the completions it
returns.  The beam ranks its states by the largest hop
distance from ``W`` to an uncovered node, an admissible lower bound on the
remaining advances read off the topology's cached hop matrix.  A successor
gets its bound from its parent's: one advance brings no node more than one
hop closer, so the bound stays or drops by one, decided by the parent's
farthest uncovered nodes alone (docs/design.md, "Lower bound").  Every
colouring, frontier and hop bound of either search comes from the search's
state memo, which lives for one broadcast.

A decision with one colour is forced: :meth:`TimeCounter.decide`, the
policies' entry, launches it without any search (docs/design.md, "Beam
approximation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Literal

from repro.core.coloring import ColorMasks, ColorScheme, lex_order_key
from repro.core.search import ExactSearch, SearchBudgetExceeded, SearchStats, UnreachableNodes
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import UNREACHABLE_HOPS, WSNTopology

__all__ = ["SearchConfig", "TimeCounter", "SearchBudgetExceeded", "UnreachableNodes"]

#: A beam state: covered mask, earliest slot of its next decision, first-colour tag.
BeamState = tuple[int, int, int]
Prune = Callable[[list[BeamState]], list[BeamState]]


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of the ``M`` search.

    Attributes
    ----------
    mode:
        ``"exact"`` (branch-and-bound, guaranteed optimal w.r.t. the colour
        provider) or ``"beam"`` (bounded-width search).
    beam_width:
        Number of coverage states kept per step in beam mode.
    max_states:
        State budget of the exact mode, summed over a counter's searches
        until :meth:`TimeCounter.clear_cache`; exceeded ⇒
        :class:`SearchBudgetExceeded`.  Also the bound on the state memo
        of either mode.
    max_slots:
        Hard horizon for duty-cycle beam searches, expressed as a multiple of
        ``2 r (d + 2)`` (the Theorem-1 bound); a schedule exceeding it
        indicates a modelling error rather than a legitimate schedule.
    """

    mode: Literal["exact", "beam"] = "exact"
    beam_width: int = 8
    max_states: int = 250_000
    max_slots: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "beam"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {self.max_states}")
        if self.max_slots <= 0:
            raise ValueError(f"max_slots must be > 0, got {self.max_slots}")


class TimeCounter:
    """Evaluates ``M(W, t)`` for a topology under a colour scheme.

    Parameters
    ----------
    topology:
        The network.
    schedule:
        Wake-up schedule for the duty-cycle system; ``None`` selects the
        round-based synchronous recursion (Eq. 4/5/7).
    color_scheme:
        The colour provider used *inside* the recursion: greedy for G-OPT
        (Eq. 7/8), exhaustive for OPT (Eq. 5/6).
    config:
        Search configuration (exact vs beam).

    Notes
    -----
    Search states are int bitmasks, bit ``i`` standing for
    ``topology.node_ids[i]`` (see docs/design.md, "Search state").  Every
    public method that takes node ids checks ``time >= 1``, a non-empty
    ``W``, known node ids and candidate colours whose senders are all in
    ``W`` (``ValueError`` otherwise) and converts ``W`` once at entry;
    colours come from
    :meth:`~repro.core.search.ExactSearch.color_masks` as
    ``(colour, receivers)`` masks, and each decision's slot and sender pool
    from :meth:`~repro.core.search.ExactSearch.decision`, which reads the
    shared :class:`~repro.dutycycle.window.ActivityWindow`.  :meth:`decide`,
    the policies' entry, takes ``W`` as a mask, as :meth:`color_masks_at`
    does; in exact mode it ranks those masks as :meth:`rank_colors` does.

    Every ``M`` value of the exact mode is one
    :meth:`~repro.core.search.ExactSearch.minimum` call; its visited set
    lives for that call.  Its expansions are charged to :attr:`stats`, so
    ``config.max_states`` caps the work of a counter until
    :meth:`clear_cache` (which the policies' ``prepare`` calls, or builds a
    fresh counter, per broadcast).

    Both modes read one state memo, owned by the
    :class:`~repro.core.search.ExactSearch`: colourings keyed by
    ``(W, pool)``, frontiers and hop reaches keyed by ``W``.  They are pure
    in the masks, so the memo changes no result and no work counter; it
    holds at most ``config.max_states`` items and :meth:`clear_cache`
    drops it.

    Hop distances come from the topology's cached
    :attr:`~repro.network.topology.WSNTopology.hop_matrix`: the beam's
    lower bound and the reachability check read
    :meth:`~repro.core.search.ExactSearch.hop_reach`, and the duty
    horizon's diameter is read once.  Each beam level hints the parent of
    every successor it ranks, so a successor's bound follows from its
    parent's far set; only a state without a usable hint takes a column
    minimum over its covered rows.  Hints live for one ranking: the level
    drops the unread ones after ``prune``.
    """

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None = None,
        color_scheme: ColorScheme | None = None,
        config: SearchConfig | None = None,
    ) -> None:
        self.topology = topology
        self.schedule = schedule
        self.color_scheme = color_scheme or ColorScheme(mode="greedy")
        self.config = config or SearchConfig()
        self.stats = SearchStats()
        self._search = ExactSearch(
            topology,
            schedule,
            self.color_scheme,
            max_states=self.config.max_states,
            stats=self.stats,
        )
        self._full = topology.full_mask

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def completion_time(self, covered: Iterable[int], time: int) -> int:
        """``M(W, t)`` (Eq. 4): the end round/slot of the best continuation.

        For a complete ``W`` this is ``t - 1`` (the broadcast already ended
        before ``t``), matching the terminal case of Eq. (4).  Exact mode
        only: a beam counter raises ``ValueError`` once the arguments pass.
        """
        _check_time(time)
        covered_mask = self._covered_mask(covered)
        self._require_exact("completion_time")
        return self._completion_time(covered_mask, time)

    def rank_colors(
        self,
        covered: Iterable[int],
        time: int,
        colors: Iterable[frozenset[int]],
    ) -> list[tuple[frozenset[int], int]]:
        """Evaluate candidate colours by ``M(W + C_i, t + 1)``.

        Returns ``(color, completion_time)`` pairs sorted by completion
        time, breaking ties in favour of the larger colour (more senders)
        and then the lexicographically smallest colour (for determinism).
        Exact mode only: a beam counter raises ``ValueError`` once the
        arguments pass.
        """
        _check_time(time)
        covered_mask = self._covered_mask(covered)
        colors, pairs = self._candidates(covered_mask, colors)
        self._require_exact("rank_colors")
        return [(colors[k], completion) for k, completion in self._rank(covered_mask, time, pairs)]

    def decide(self, covered: int, time: int) -> int | None:
        """The position of the colour to launch in ``color_masks_at(covered, time)``.

        ``covered`` is a mask.  Returns ``None`` when that list is empty.
        A forced decision (one colour) is taken without a search: the only
        colour is launched whatever ``M`` it leads to.  It still raises
        :class:`UnreachableNodes` on a disconnected topology when ``W``
        cannot reach every node.  Among several colours, exact mode takes
        the first of :meth:`rank_colors`' order, and beam mode the first
        colour of the earliest-completing state of one shared beam search
        (docs/design.md, "Beam approximation").
        """
        _check_time(time)
        pairs = self.color_masks_at(covered, time)
        if len(pairs) > 1:
            if self.config.mode == "exact":
                return self._rank(covered, time, pairs)[0][0]
            return self._select_beam(covered, time, pairs)
        if not pairs:
            return None
        if not self._connected:
            self._check_reachable(covered)
        return 0

    def color_masks_at(self, covered: int, time: int) -> list[ColorMasks]:
        """The provider's ``(colour, receivers)`` masks at ``(W, t)``, memoised.

        ``covered`` is a mask.  The pool is every covered node in the
        synchronous system and the frontier nodes awake at ``time`` in the
        duty-cycle system (empty when none is); either way the colours are
        those of the covered nodes free to send at ``time``.
        """
        search = self._search
        if search.window is None:
            return search.color_masks(covered, covered)
        return search.color_masks(
            covered, search.frontier(covered) & search.window.awake_mask(time)
        )

    def clear_cache(self) -> None:
        """Reset the work counters, and with them the exact-mode budget, and
        drop the state memo."""
        self.stats.reset()
        self._search.clear_memo()

    # ------------------------------------------------------------------
    # Shared helpers (``covered`` and states are masks from here on)
    # ------------------------------------------------------------------
    def _check_known(self, nodes: frozenset[int], what: str) -> None:
        unknown = nodes - self.topology.node_set
        if unknown:
            raise ValueError(f"{what} holds node ids not in the topology: {sorted(unknown)}")

    def _covered_mask(self, covered: Iterable[int]) -> int:
        covered = frozenset(covered)
        if not covered:
            raise ValueError("covered is empty; it must hold at least the source")
        self._check_known(covered, "covered")
        return self.topology.mask_from_nodes(covered)

    def _candidates(
        self, covered: int, colors: Iterable[frozenset[int]]
    ) -> tuple[list[frozenset[int]], list[ColorMasks]]:
        """The candidate colours and their ``(colour, receivers)`` masks."""
        colors = [frozenset(c) for c in colors]
        self._check_known(frozenset().union(*colors), "a candidate colour")
        mask_from_nodes = self.topology.mask_from_nodes
        neighbor_mask = self.topology.neighbor_mask
        pairs: list[ColorMasks] = []
        senders = 0
        for color in colors:
            reached = 0
            for u in color:
                reached |= neighbor_mask(u)
            color_mask = mask_from_nodes(color)
            senders |= color_mask
            pairs.append((color_mask, reached & ~covered))
        uncovered = senders & ~covered
        if uncovered:
            raise ValueError(
                "a candidate colour holds senders not in covered: "
                f"{sorted(self.topology.nodes_from_mask(uncovered))}"
            )
        return colors, pairs

    def _require_exact(self, entry: str) -> None:
        if self.config.mode != "exact":
            raise ValueError(
                f"{entry} evaluates M exactly and needs mode='exact'; this "
                f"counter's mode is {self.config.mode!r}, which is reached "
                "through decide only"
            )

    def _completion_time(self, covered: int, time: int) -> int:
        self._check_reachable(covered)
        return self._search.minimum(covered, time)

    def _rank(self, covered: int, time: int, pairs: list[ColorMasks]) -> list[tuple[int, int]]:
        """``(position, M(W + C, t + 1))`` of every pair, in ``rank_colors`` order."""
        width = self.topology.num_nodes
        ranked = [
            (k, self._completion_time(covered | reached, time + 1))
            for k, (_, reached) in enumerate(pairs)
        ]

        def key(item: tuple[int, int]) -> tuple[int, int, int]:
            color = pairs[item[0]][0]
            return item[1], -color.bit_count(), lex_order_key(color, width)

        ranked.sort(key=key)
        return ranked

    @cached_property
    def _connected(self) -> bool:
        """Whether every node reaches every other, read once."""
        return self.topology.is_connected()

    def _check_reachable(self, covered: int) -> None:
        if covered == self._full or self._search.hop_reach(covered)[1]:
            return
        topology = self.topology
        unreachable = topology.nearest_hops(covered) == UNREACHABLE_HOPS
        examples = sorted(topology.nodes_from_mask(topology.mask_from_bool(unreachable)))
        raise UnreachableNodes(
            f"{len(examples)} nodes can never receive the message "
            f"(e.g. {examples[:5]}); the topology is disconnected"
        )

    def _hop_lower_bound(self, covered: int) -> int:
        """Largest hop distance from ``W`` to an uncovered node (admissible).

        Nodes ``W`` cannot reach are left out, as a BFS from ``W`` would
        never visit them.
        """
        return self._search.hop_reach(covered)[0]

    @cached_property
    def _horizon_depth(self) -> int:
        """``d`` of the duty horizon: the hop diameter, read once."""
        try:
            return self.topology.diameter()
        except ValueError:  # pragma: no cover - disconnected handled earlier
            return self.topology.num_nodes

    def _horizon(self, time: int) -> float:
        """The beam's last decision slot: none in the synchronous system."""
        if self.schedule is None:
            return math.inf
        # The horizon must cover the sleepiest node's cycle, not the base rate.
        rate = self.schedule.max_rate
        # d+2 measured from scratch is a safe over-estimate of the remaining
        # depth for any intermediate W.
        depth = self._horizon_depth
        return time + int(self.config.max_slots * 2 * rate * (depth + 2)) + 2 * rate

    # ------------------------------------------------------------------
    # Beam mode: one level kernel and the first-colour selection over it
    # ------------------------------------------------------------------
    def _beam(self, beam: list[BeamState], horizon: float, prune: Prune) -> int | None:
        """Search level by level from ``beam``; the tag of the chosen first colour.

        A state ``(W, slot, first)`` is a covered set, the earliest slot of
        its next decision and the tag of the first colour it committed to.
        Each level expands states through
        :meth:`~repro.core.search.ExactSearch.decision` (in the synchronous
        system ``(slot, W)``, so the sync search is this duty loop), and
        ``prune`` keeps the next level out of the successors that could
        still beat ``best``, the earliest completion slot found.  The result
        is ``None`` if nothing completes.  Among the tags completing at
        ``best``, the synchronous system picks the smallest and the
        duty-cycle system the first one found.

        A state is skipped if ``slot > best`` or if its decision slot is
        past ``horizon`` or past ``best``.  A state whose decision slot ties
        ``best`` records no successors, since they would decide after
        ``best``; all it could do is add its own tag to the tags completing
        at ``best``.  That cannot change the duty-cycle pick, nor the
        synchronous one unless the tag is smaller than the chosen one, so
        every other tie is skipped unexpanded and uncounted (docs/design.md,
        "Beam approximation").  Keeping ties out of ``successors`` also
        leaves its insertion order to the states that can still improve
        ``best``: a dropped entry would hold its place, and the stable sort
        under the non-total duty-selection key falls back on that order.  A
        successor reached by several states keeps the earliest slot and, on
        equal slots, the first state's tag, and its parent is that state:
        the successors passed to ``prune`` carry a parent hint, and the
        hints ``prune`` did not read are dropped.
        """
        full = self._full
        search = self._search
        hint = search._hint
        stats = self.stats
        ties_can_win = self.schedule is None
        best: float = math.inf
        chosen: int | None = None
        for _ in range(4 * self.topology.num_nodes + 8):
            if not beam:
                break
            successors: dict[int, tuple[int, int, int]] = {}
            for state, slot, first in beam:
                if slot > best:
                    continue
                decision_slot, pool = search.decision(state, slot)
                if decision_slot > horizon or decision_slot > best:
                    continue
                ties_best = decision_slot == best
                if ties_best and not (ties_can_win and first < chosen):
                    continue
                stats.expansions += 1
                next_slot = decision_slot + 1
                for _, reached in search.color_masks(state, pool):
                    covered = state | reached
                    if covered == full:
                        # Expanded at ``best`` only with a smaller tag, or
                        # this state's own earlier completion.
                        best, chosen = decision_slot, first
                    elif not ties_best:
                        previous = successors.get(covered)
                        if previous is None or next_slot < previous[0]:
                            successors[covered] = (next_slot, first, state)
            level: list[BeamState] = []
            for covered, (slot, first, parent) in successors.items():
                if slot < best:
                    hint(covered, parent)
                    level.append((covered, slot, first))
            beam = prune(level)
            search._drop_hints()
            stats.states += len(beam)
        return chosen

    def _top(self, states: list[BeamState], key: Callable[[BeamState], tuple]) -> list[BeamState]:
        """The first ``beam_width`` states under ``key`` (a stable sort)."""
        states.sort(key=key)
        return states[: self.config.beam_width]

    def _launch_order(self, pairs: list[ColorMasks]) -> tuple[list[int], list[int]]:
        """The pairs' positions in launch order, and each one's tie rank.

        Launch order is (most receivers, lexicographically smallest colour).
        A selection state's ``first`` tag is its first colour's place in
        that order; ``ties[first]`` is the colour's rank under
        ``tuple(sorted(colour))``, the tie-break the pruning keys apply to
        first colours.  Bit order is node-id order, so the sorted bit
        positions of a colour order it as its sorted ids do.
        """
        keys = [_bit_positions(color) for color, _ in pairs]
        order = sorted(range(len(pairs)), key=lambda k: (-pairs[k][1].bit_count(), keys[k]))
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        return order, [rank[keys[k]] for k in order]

    def _prune_states(self, states: list[BeamState], ties: list[int]) -> list[BeamState]:
        """The synchronous selection's pruning: a popcount shortlist.

        At most ``beam_width`` states pass unchanged, in their given order.
        Otherwise states are ordered by covered-set size (cheap), and the
        top ``3 × beam_width`` are re-ranked with the admissible hop lower
        bound (only computed for the shortlist); both orders end in the
        first colour's tie rank.
        """
        width = self.config.beam_width
        if len(states) <= width:
            return states
        hop = self._hop_lower_bound
        states.sort(key=lambda item: (-item[0].bit_count(), ties[item[2]]))
        shortlist = states[: 3 * width]
        shortlist.sort(key=lambda item: (hop(item[0]), -item[0].bit_count(), ties[item[2]]))
        return shortlist[:width]

    def _select_beam(self, covered: int, time: int, pairs: list[ColorMasks]) -> int:
        """First-colour selection by one shared beam: the chosen pair's position.

        Each candidate seeds a state tagged with its launch position; one
        that completes at once wins, the earliest in launch order.  The
        synchronous system prunes its seeds too and takes the earliest
        launch position among the completions at ``best``; the duty-cycle
        system takes the first one found, and without any completion
        inside the horizon falls back to the colour launched first.
        """
        order, ties = self._launch_order(pairs)
        synchronous = self.schedule is None
        seeds: list[BeamState] = []
        seen: set[int] = set()
        for first, k in enumerate(order):
            state = covered | pairs[k][1]
            if state == self._full:
                return k
            if state not in seen:
                seen.add(state)
                seeds.append((state, time + 1, first))
                if synchronous:
                    self._search._hint(state, covered)  # every sender is in covered
        horizon = self._horizon(time)
        if synchronous:
            prune = partial(self._prune_states, ties=ties)
            beam = prune(seeds)
            self._search._drop_hints()
            chosen = self._beam(beam, horizon, prune)
            if chosen is None:
                raise UnreachableNodes("beam colour selection exhausted without completing")
            return order[chosen]
        hop = self._hop_lower_bound

        def key(item: BeamState) -> tuple:
            return item[1] + hop(item[0]), -item[0].bit_count(), ties[item[2]]

        chosen = self._beam(seeds, horizon, partial(self._top, key=key))
        if chosen is None:
            # No completion inside the horizon: fall back to the colour with
            # the largest immediate coverage (still a valid relay).
            return order[0]
        return order[chosen]


def _bit_positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


def _check_time(time: int) -> None:
    if time < 1:
        raise ValueError(f"time is 1-based, got {time}")
