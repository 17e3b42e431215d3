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
  the exact solver tier runs the same search over every maximal colour),
  and
* ``mode="beam"``  — a beam search over coverage states (default width 8)
  that preserves the "evaluate each candidate colour by its recursive
  completion time" semantics while bounding work; exact and beam agree on
  every small instance we test (see ``tests/unit/test_time_counter.py`` and
  the beam-width ablation benchmark).

Both searches jump from one decision to the next with the same helper,
:meth:`~repro.core.search.ExactSearch.decision`: by coverage monotonicity
(a larger covered set never completes later) transmitting never hurts, so
the duty-cycle search moves to the next slot at which *some* frontier node
is awake instead of branching over idle waits.  The beam ranks its states
by the largest hop distance from ``W`` to an uncovered node, an admissible
lower bound on the remaining advances read off the topology's cached hop
matrix.  Every colouring, frontier and hop bound of either search comes
from the search's state memo, which lives for one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

from repro.core.coloring import ColorMasks, ColorScheme, lex_order_key
from repro.core.search import ExactSearch, SearchBudgetExceeded, SearchStats, UnreachableNodes
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.bitset import UNREACHABLE_HOPS, bitset_view
from repro.network.topology import WSNTopology

__all__ = ["SearchConfig", "TimeCounter", "SearchBudgetExceeded", "UnreachableNodes"]


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
    public method converts ``W`` once at entry; colours come from
    :meth:`~repro.core.search.ExactSearch.color_masks` as
    ``(colour, receivers)`` masks, and each decision's slot and sender pool
    from :meth:`~repro.core.search.ExactSearch.decision`, which reads the
    shared :class:`~repro.dutycycle.window.ActivityWindow`.

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
    :meth:`~repro.core.search.ExactSearch.hop_reach`, one column minimum
    over the covered rows, and the duty horizon's diameter is read once.
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
        self._view = bitset_view(topology)
        self._full = topology.full_mask

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def completion_time(self, covered: Iterable[int], time: int) -> int:
        """``M(W, t)``: the end round/slot of the best continuation.

        For a complete ``W`` this is ``t - 1`` (the broadcast already ended
        before ``t``), matching the terminal case of Eq. (4).
        """
        return self._completion_time(self._mask_of(covered), time)

    def rank_colors(
        self,
        covered: Iterable[int],
        time: int,
        colors: Iterable[frozenset[int]],
    ) -> list[tuple[frozenset[int], int]]:
        """Evaluate candidate colours by ``M(W + C_i, t + 1)``.

        Returns ``(color, completion_time)`` pairs sorted by completion
        time, breaking ties in favour of larger coverage and then the
        lexicographically smallest colour (for determinism).
        """
        covered_mask = self._mask_of(covered)
        return self._rank_colors(covered_mask, time, [frozenset(c) for c in colors])

    def select_color(
        self,
        covered: Iterable[int],
        time: int,
        colors: Iterable[frozenset[int]],
    ) -> tuple[frozenset[int], int]:
        """Pick the colour to launch now, per Eq. (5)-(8).

        In ``exact`` mode every candidate colour is evaluated independently
        by the branch-and-bound (identical to :meth:`rank_colors`).  In
        ``beam`` mode a *single* shared beam search is run in which each
        state remembers the first colour it committed to; the first colour
        of the earliest-completing state wins.  This preserves the "judge a
        colour by the best schedule that starts with it" semantics of the
        time counter while doing the work of one search instead of
        ``λ(W)`` searches — the approximation documented in docs/design.md
        ("Beam approximation").
        """
        colors = [frozenset(c) for c in colors]
        if not colors:
            raise ValueError("select_color needs at least one candidate colour")
        return self._select_color(self._mask_of(covered), time, colors)

    def best_color(
        self, covered: Iterable[int], time: int
    ) -> tuple[frozenset[int], int] | None:
        """The colour minimising ``M`` at ``(W, t)`` and its completion time.

        Returns ``None`` when no colour is available at ``time`` (duty-cycle
        slot with no awake frontier node, or ``W`` already complete).
        """
        covered_mask = self._mask_of(covered)
        pairs = self.color_masks_at(covered_mask, time)
        if not pairs:
            return None
        view = self._view
        colors = [view.nodes_from_bool(view.bool_from_mask(color)) for color, _ in pairs]
        return self._select_color(covered_mask, time, colors)

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
    def _mask_of(self, covered: Iterable[int]) -> int:
        view = self._view
        return view.mask_from_bool(view.bool_from_nodes(covered))

    def _completion_time(self, covered: int, time: int) -> int:
        if time < 1:
            raise ValueError(f"time is 1-based, got {time}")
        self._check_reachable(covered)
        if self.config.mode == "exact":
            return self._search.minimum(covered, time)
        if self.schedule is None:
            return time - 1 + self._remaining_sync_beam(covered)
        return self._completion_duty_beam(covered, time)

    def _receivers(self, color: frozenset[int], covered: int) -> int:
        """Uncovered nodes reached by the colour ``color`` (a mask)."""
        neighbor_mask = self.topology.neighbor_mask
        reached = 0
        for u in color:
            reached |= neighbor_mask(u)
        return reached & ~covered

    def _rank_colors(
        self, covered: int, time: int, colors: list[frozenset[int]]
    ) -> list[tuple[frozenset[int], int]]:
        ranked = [
            (color, self._completion_time(covered | self._receivers(color, covered), time + 1))
            for color in colors
        ]
        ranked.sort(key=lambda item: (item[1], -len(item[0]), tuple(sorted(item[0]))))
        return ranked

    def _select_color(
        self, covered: int, time: int, colors: list[frozenset[int]]
    ) -> tuple[frozenset[int], int]:
        if len(colors) == 1:
            reached = self._receivers(colors[0], covered)
            return colors[0], self._completion_time(covered | reached, time + 1)
        if self.config.mode == "exact":
            return self._rank_colors(covered, time, colors)[0]
        if self.schedule is None:
            return self._select_color_beam_sync(covered, time, colors)
        return self._select_color_beam_duty(covered, time, colors)

    def _check_reachable(self, covered: int) -> None:
        if covered == self._full or self._search.hop_reach(covered)[1]:
            return
        unreachable = self._view.nearest_hops(covered) == UNREACHABLE_HOPS
        examples = self._view.node_ids[unreachable].tolist()
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

    def _state_key(self, state: int) -> tuple[int, int]:
        """``(-|W|, tuple(sorted(W)))`` as ints: see :func:`lex_order_key`."""
        return -state.bit_count(), lex_order_key(state, self._view.num_nodes)

    @cached_property
    def _horizon_depth(self) -> int:
        """``d`` of the duty horizon: the hop diameter, read once."""
        try:
            return self.topology.diameter()
        except ValueError:  # pragma: no cover - disconnected handled earlier
            return self.topology.num_nodes

    def _duty_horizon(self, time: int) -> int:
        assert self.schedule is not None
        # The horizon must cover the sleepiest node's cycle, not the base rate.
        rate = self.schedule.max_rate
        # d+2 measured from scratch is a safe over-estimate of the remaining
        # depth for any intermediate W.
        depth = self._horizon_depth
        return time + int(self.config.max_slots * 2 * rate * (depth + 2)) + 2 * rate

    # ------------------------------------------------------------------
    # Beam search of the synchronous M
    # ------------------------------------------------------------------
    def _remaining_sync_beam(self, covered: int) -> int:
        full = self._full
        if covered == full:
            return 0
        beam: list[int] = [covered]
        rounds = 0
        visited: set[int] = {covered}
        while beam:
            rounds += 1
            successors: set[int] = set()
            for state in beam:
                self.stats.expansions += 1
                _, pairs = self._search.colors(state, rounds)
                successors.update(state | reached for _, reached in pairs)
            if full in successors:
                return rounds
            fresh = [s for s in successors if s not in visited]
            if not fresh:
                # Every successor was already explored with fewer rounds; the
                # remaining beam cannot improve, fall back to the best
                # successor anyway to guarantee progress.
                fresh = list(successors)
            fresh.sort(key=lambda s: (self._hop_lower_bound(s), *self._state_key(s)))
            beam = fresh[: self.config.beam_width]
            visited.update(beam)
            self.stats.states += len(beam)
            if rounds > self.topology.num_nodes + 2:
                raise RuntimeError(
                    "beam search failed to converge; this indicates a bug in "
                    "the colour provider (coverage must grow every round)"
                )
        raise UnreachableNodes("beam search exhausted without completing coverage")

    # ------------------------------------------------------------------
    # Shared-beam colour selection (beam mode decision making)
    # ------------------------------------------------------------------
    def _first_colors(
        self, colors: list[frozenset[int]], covered: int
    ) -> tuple[list[frozenset[int]], list[int], list[int]]:
        """The candidate colours in launch order, with receivers and tie keys.

        Launch order is (most receivers, lexicographically smallest colour).
        A beam state remembers its first colour by position in that order;
        ``ties[position]`` is the colour's rank under ``tuple(sorted(colour))``,
        the tie-break the beam applies to first colours.
        """
        reached = [self._receivers(color, covered) for color in colors]
        keys = [tuple(sorted(color)) for color in colors]
        order = sorted(range(len(colors)), key=lambda k: (-reached[k].bit_count(), keys[k]))
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        return (
            [colors[k] for k in order],
            [reached[k] for k in order],
            [rank[keys[k]] for k in order],
        )

    def _prune_states(
        self, states: list[tuple[int, int]], ties: list[int]
    ) -> list[tuple[int, int]]:
        """Keep the ``beam_width`` most promising (coverage, first-colour) states.

        States are first ordered by covered-set size (cheap), then the top
        few are re-ranked with the admissible hop lower bound (a gather
        over the hop matrix each, so only computed for the short list).
        """
        if len(states) <= self.config.beam_width:
            return states
        states.sort(key=lambda item: (-item[0].bit_count(), ties[item[1]]))
        shortlist = states[: max(3 * self.config.beam_width, self.config.beam_width)]
        shortlist.sort(
            key=lambda item: (
                self._hop_lower_bound(item[0]),
                -item[0].bit_count(),
                ties[item[1]],
            )
        )
        return shortlist[: self.config.beam_width]

    def _select_color_beam_sync(
        self,
        covered: int,
        time: int,
        colors: list[frozenset[int]],
    ) -> tuple[frozenset[int], int]:
        full = self._full
        ordered, first_reached, ties = self._first_colors(colors, covered)
        # states: (covered mask, position of the first colour committed to)
        beam: list[tuple[int, int]] = []
        seen: dict[int, int] = {}
        for first, reached in enumerate(first_reached):
            new_covered = covered | reached
            if new_covered == full:
                return ordered[first], time
            if new_covered not in seen:
                seen[new_covered] = first
                beam.append((new_covered, first))
        beam = self._prune_states(beam, ties)

        rounds = 1
        while beam:
            rounds += 1
            if rounds > self.topology.num_nodes + 2:
                raise RuntimeError(
                    "beam colour selection failed to converge; the colour "
                    "provider stopped making progress"
                )
            successors: dict[int, int] = {}
            completed: list[int] = []
            for state, first in beam:
                self.stats.expansions += 1
                for _, reached in self._search.color_masks(state, state):
                    new_covered = state | reached
                    if new_covered == full:
                        completed.append(first)
                        continue
                    if new_covered not in successors:
                        successors[new_covered] = first
            if completed:
                # All completions happen at the same round; the first colour
                # earliest in launch order wins, for determinism.
                return ordered[min(completed)], time + rounds - 1
            beam = self._prune_states(list(successors.items()), ties)
            self.stats.states += len(beam)
        raise UnreachableNodes("beam colour selection exhausted without completing")

    def _select_color_beam_duty(
        self,
        covered: int,
        time: int,
        colors: list[frozenset[int]],
    ) -> tuple[frozenset[int], int]:
        assert self.schedule is not None
        full = self._full
        horizon = self._duty_horizon(time)
        ordered, first_reached, ties = self._first_colors(colors, covered)
        # states: (coverage, slot of next decision, first colour's position)
        beam: list[tuple[int, int, int]] = []
        best_completion = math.inf
        best_first: int | None = None
        seen: set[int] = set()
        for first, reached in enumerate(first_reached):
            new_covered = covered | reached
            if new_covered == full:
                if time < best_completion:
                    best_completion = time
                    best_first = first
                continue
            if new_covered not in seen:
                seen.add(new_covered)
                beam.append((new_covered, time + 1, first))
        if best_first is not None:
            return ordered[best_first], int(best_completion)

        iterations = 0
        while beam:
            iterations += 1
            if iterations > 4 * self.topology.num_nodes + 8:
                break
            successors: dict[int, tuple[int, int]] = {}
            for state, slot, first in beam:
                if slot >= best_completion:
                    continue
                decision_slot, pool = self._search.decision(state, slot)
                if decision_slot > horizon or decision_slot >= best_completion:
                    continue
                self.stats.expansions += 1
                for _, reached in self._search.color_masks(state, pool):
                    new_covered = state | reached
                    if new_covered == full:
                        if decision_slot < best_completion:
                            best_completion = decision_slot
                            best_first = first
                        continue
                    previous = successors.get(new_covered)
                    if previous is None or decision_slot + 1 < previous[0]:
                        successors[new_covered] = (decision_slot + 1, first)
            candidates = [
                (state, slot, first)
                for state, (slot, first) in successors.items()
                if slot < best_completion
            ]
            candidates.sort(
                key=lambda item: (
                    item[1] + self._hop_lower_bound(item[0]),
                    -item[0].bit_count(),
                    ties[item[2]],
                )
            )
            beam = candidates[: self.config.beam_width]
            self.stats.states += len(beam)
        if best_first is None:
            # No completion found inside the horizon: fall back to the colour
            # with the largest immediate coverage (still a valid relay).
            return ordered[0], int(horizon)
        return ordered[best_first], int(best_completion)

    def _completion_duty_beam(self, covered: int, slot: int) -> int:
        assert self.schedule is not None
        full = self._full
        if covered == full:
            return slot - 1
        horizon = self._duty_horizon(slot)
        beam: list[tuple[int, int]] = [(covered, slot)]
        best_completion = math.inf
        iterations = 0
        while beam:
            iterations += 1
            if iterations > 4 * self.topology.num_nodes + 8:
                break
            successors: dict[int, int] = {}
            for state, state_slot in beam:
                if state_slot >= best_completion:
                    continue
                decision_slot, pool = self._search.decision(state, state_slot)
                if decision_slot > horizon:
                    continue
                self.stats.expansions += 1
                new_slot = decision_slot + 1
                for _, reached in self._search.color_masks(state, pool):
                    new_covered = state | reached
                    if new_covered == full:
                        best_completion = min(best_completion, decision_slot)
                        continue
                    previous = successors.get(new_covered)
                    if previous is None or new_slot < previous:
                        successors[new_covered] = new_slot
            candidates = [
                (state, state_slot)
                for state, state_slot in successors.items()
                if state_slot < best_completion
            ]
            candidates.sort(
                key=lambda item: (
                    item[1] + self._hop_lower_bound(item[0]),
                    *self._state_key(item[0]),
                )
            )
            beam = candidates[: self.config.beam_width]
            self.stats.states += len(beam)
        if math.isinf(best_completion):
            raise RuntimeError(
                "duty-cycle beam search found no completing schedule within "
                "its horizon; increase SearchConfig.max_slots"
            )
        return int(best_completion)
