"""Exact minimum-latency broadcast by deterministic branch-and-bound.

This is the always-available exact backend of the solver tiers
(:mod:`repro.solvers`): pure python, no solver library required.  The search
walks schedules depth-first over states ``(W, t)`` and is exact thanks to
two dominance properties of the paper's model (both hinge on coverage
monotonicity: every constraint of Eq. 1/3 only *relaxes* as ``W`` grows, so
any schedule feasible from ``(W, t)`` replays verbatim from ``(W', t)``
with ``W' ⊇ W``):

* *No useful idling* — transmitting some admissible colour at a slot where
  an awake frontier candidate exists is never worse than idling, because
  the remainder of any idle schedule replays from the strictly larger
  coverage and the extra early advance cannot move the **last** delivery
  later.
* *Maximality* — every admissible colour extends to a *maximal* one
  (keep adding non-conflicting candidates), and the maximal superset covers
  a superset of receivers; so branching over
  :func:`repro.core.coloring.enumerate_color_classes` (the maximal
  independent sets of the conflict graph) loses no optimal schedule.

Pruning uses an admissible lower bound, :func:`flood_completion_bound`:
the earliest completion if interference vanished, i.e. a Dijkstra-style
relaxation where a node covered at slot ``τ`` forwards at its next wake-up
slot ``> τ`` (in the synchronous system this degenerates to hop distance;
in the duty-cycle system it is at least as tight as hop distance times the
cycle length).  The incumbent is seeded by a greedy descent (always take
the first maximal colour), so the search starts with a feasible schedule.

Determinism contract
--------------------
Given ``(topology, source, schedule, start_time)`` the functions here are
pure: branching order is the sorted order of
``enumerate_color_classes`` (larger colours first, then lexicographic), so
:func:`extract_plan` returns the **canonical optimal plan** — the first
optimum-achieving leaf in that fixed depth-first order.  The ILP backend
(:mod:`repro.solvers.ilp`) only ever supplies the optimal *value*; the plan
is always extracted here, which is what makes exact-tier records
bit-identical whether or not a solver library is installed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.advance import Advance
from repro.core.coloring import enumerate_color_classes, frontier_candidates
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.bitset import UNREACHABLE_HOPS, bitset_view
from repro.network.interference import receivers_of
from repro.network.topology import WSNTopology
from repro.utils.validation import require

__all__ = [
    "SolverError",
    "SolverLimitExceeded",
    "SolverPlan",
    "flood_completion_bound",
    "greedy_completion",
    "minimum_completion",
    "extract_plan",
    "DEFAULT_MAX_STATES",
]

#: Search-state budget of the branch-and-bound (states *expanded*, summed
#: over the value search and the plan extraction).  Generous for the
#: small-``n`` instances the exact tiers accept; exceeding it raises
#: :class:`SolverLimitExceeded` instead of hanging.
DEFAULT_MAX_STATES = 500_000


class SolverError(RuntimeError):
    """The exact solver cannot handle this instance."""


class SolverLimitExceeded(SolverError):
    """The branch-and-bound exhausted its search-state budget."""


@dataclass(frozen=True)
class SolverPlan:
    """An optimal broadcast schedule plus its certificate.

    ``optimum`` is the completion slot (the engine's ``end_time``); the
    paper's latency ``P(A)`` is ``optimum - start_time + 1``.  ``advances``
    replay through :func:`repro.sim.broadcast.run_broadcast` unchanged —
    the engines re-validate every one of them against the network model.
    """

    source: int
    start_time: int
    optimum: int
    lower_bound: int
    advances: tuple[Advance, ...]
    backend: str
    explored: int

    @property
    def latency(self) -> int:
        """The paper's ``P(A)`` of the optimal schedule."""
        return max(self.optimum - self.start_time + 1, 0)


def _check_instance(
    topology: WSNTopology,
    covered: frozenset[int],
    schedule: WakeupSchedule | None,
) -> None:
    unknown = covered - topology.node_set
    require(not unknown, f"covered contains unknown nodes: {sorted(unknown)}")
    require(bool(covered), "need at least one initially covered node")
    if schedule is not None:
        missing = set(topology.node_ids) - set(schedule.node_ids)
        require(
            not missing,
            f"wake-up schedule missing nodes {sorted(missing)}",
        )


def flood_completion_bound(
    topology: WSNTopology,
    covered: frozenset[int],
    time: int,
    schedule: WakeupSchedule | None,
) -> int | None:
    """Admissible lower bound on the completion slot from state ``(W, t)``.

    Relaxation: interference vanishes, so every covered node forwards to
    *all* its neighbours at its earliest transmission opportunity.  A node
    covered at slot ``τ`` may transmit from slot ``τ + 1`` on — at the next
    slot in the synchronous system, at its next wake-up slot in the
    duty-cycle system.  The bound is the latest receive slot over the
    uncovered nodes; ``None`` means some node is unreachable (disconnected
    topology), i.e. the instance is infeasible.

    In the synchronous system the latest receive slot is ``t - 1`` plus the
    largest hop distance from ``W``, read off the hop matrix through the
    same column minima as the time counter's lower bound.
    """
    if schedule is None:
        nearest = bitset_view(topology).nearest_hops(topology.mask_from_nodes(covered))
        if (nearest == UNREACHABLE_HOPS).any():
            return None
        return time - 1 + int(nearest.max(initial=0))
    best: dict[int, int] = {u: time - 1 for u in covered}
    heap: list[tuple[int, int]] = [(time - 1, u) for u in sorted(covered)]
    heapq.heapify(heap)
    while heap:
        received, u = heapq.heappop(heap)
        if received > best.get(u, received):
            continue
        transmit = schedule.next_active_slot(u, received + 1)
        for v in topology.neighbors(u):
            if transmit < best.get(v, transmit + 1):
                best[v] = transmit
                heapq.heappush(heap, (transmit, v))
    if len(best) < topology.num_nodes:
        return None
    uncovered = topology.node_set - covered
    if not uncovered:
        return time - 1
    return max(best[v] for v in uncovered)


def _next_decision(
    topology: WSNTopology,
    covered: frozenset[int],
    time: int,
    schedule: WakeupSchedule | None,
) -> tuple[int, list[frozenset[int]]] | None:
    """The next slot with an awake frontier candidate, and its colours.

    Returns ``None`` when the frontier is empty (disconnected topology) or
    no candidate ever wakes again; otherwise ``(slot, colours)`` with
    ``colours`` the maximal admissible colours in canonical order.
    """
    candidates = frontier_candidates(topology, covered)
    if not candidates:
        return None
    if schedule is None:
        slot = time
        awake = None
    else:
        next_slot = schedule.next_awake_slot(candidates, time)
        if next_slot is None:  # pragma: no cover - schedules are unbounded
            return None
        slot = next_slot
        awake = schedule.awake_nodes(candidates, slot)
    colors = enumerate_color_classes(topology, covered, awake)
    if not colors:  # pragma: no cover - a candidate awake at ``slot`` exists
        return None
    return slot, colors


def greedy_completion(
    topology: WSNTopology,
    covered: frozenset[int],
    start_time: int,
    schedule: WakeupSchedule | None,
) -> int | None:
    """Completion slot of the greedy descent (first maximal colour each slot).

    A feasible schedule, used as the initial incumbent of the value search
    and as the default horizon of the brute-force oracle.  ``None`` for
    disconnected topologies.
    """
    full = topology.node_set
    time = start_time
    end = start_time - 1
    while covered != full:
        decision = _next_decision(topology, covered, time, schedule)
        if decision is None:
            return None
        slot, colors = decision
        receivers = receivers_of(topology, colors[0], covered)
        covered = covered | receivers
        end = slot
        time = slot + 1
    return end


class _Search:
    """Shared state of one branch-and-bound run (value or extraction)."""

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        max_states: int,
    ) -> None:
        self.topology = topology
        self.schedule = schedule
        self.max_states = max_states
        self.explored = 0

    def charge(self) -> None:
        self.explored += 1
        if self.explored > self.max_states:
            raise SolverLimitExceeded(
                f"branch-and-bound exceeded {self.max_states} search states; "
                "the instance is too large for the exact tier "
                "(see the instance-size limits in docs/solvers.md)"
            )


def minimum_completion(
    topology: WSNTopology,
    covered: frozenset[int],
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[int, int, int]:
    """Optimal completion slot from ``(covered, start_time)``.

    Returns ``(optimum, lower_bound, explored_states)``.  Raises
    :class:`SolverError` for disconnected topologies and
    :class:`SolverLimitExceeded` past the state budget.
    """
    require(start_time >= 1, "start_time is 1-based")
    _check_instance(topology, covered, schedule)
    full = topology.node_set
    if covered == full:
        return start_time - 1, start_time - 1, 0

    root_bound = flood_completion_bound(topology, covered, start_time, schedule)
    incumbent = greedy_completion(topology, covered, start_time, schedule)
    if root_bound is None or incumbent is None:
        raise SolverError(
            "topology is disconnected: some node can never receive the message"
        )

    search = _Search(topology, schedule, max_states)
    # Once a state is fully explored the incumbent has absorbed everything
    # its subtree can offer (the incumbent only ever decreases), so a
    # revisit can simply be pruned: ``visited`` needs no stored value.
    visited: set[tuple[frozenset[int], int]] = set()

    def descend(covered: frozenset[int], time: int) -> None:
        nonlocal incumbent
        bound = flood_completion_bound(search.topology, covered, time, search.schedule)
        if bound is None or bound >= incumbent:
            return
        key = (covered, time)
        if key in visited:
            return
        visited.add(key)
        search.charge()
        decision = _next_decision(search.topology, covered, time, search.schedule)
        if decision is None:
            return
        slot, colors = decision
        if slot >= incumbent:
            # Even an immediately completing advance would not improve.
            return
        for color in colors:
            receivers = receivers_of(search.topology, color, covered)
            child = covered | receivers
            if child == full:
                incumbent = slot  # strictly better: slot < incumbent above
            else:
                descend(child, slot + 1)

    descend(covered, start_time)
    return incumbent, root_bound, search.explored


def extract_plan(
    topology: WSNTopology,
    covered: frozenset[int],
    optimum: int,
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[tuple[Advance, ...], int]:
    """The canonical optimal plan: first ``optimum``-achieving DFS leaf.

    ``optimum`` must be the optimal completion slot (from
    :func:`minimum_completion` or the ILP backend — both exact, so the
    deadline is the same either way and the extracted plan is identical).
    Returns ``(advances, explored_states)``.
    """
    require(start_time >= 1, "start_time is 1-based")
    _check_instance(topology, covered, schedule)
    full = topology.node_set
    if covered == full:
        return (), 0

    search = _Search(topology, schedule, max_states)
    # States proved unable to finish by the deadline; revisits re-fail.
    dead: set[tuple[frozenset[int], int]] = set()
    prefix: list[Advance] = []

    def descend(covered: frozenset[int], time: int) -> bool:
        bound = flood_completion_bound(search.topology, covered, time, search.schedule)
        if bound is None or bound > optimum:
            return False
        key = (covered, time)
        if key in dead:
            return False
        search.charge()
        decision = _next_decision(search.topology, covered, time, search.schedule)
        if decision is None or decision[0] > optimum:
            dead.add(key)
            return False
        slot, colors = decision
        for index, color in enumerate(colors):
            advance = Advance.from_color(
                search.topology,
                covered,
                color,
                slot,
                color_index=index + 1,
                num_colors=len(colors),
            )
            prefix.append(advance)
            child = covered | advance.receivers
            if child == full or descend(child, slot + 1):
                return True
            prefix.pop()
        dead.add(key)
        return False

    if not descend(covered, start_time):
        raise SolverError(
            f"no schedule completes by slot {optimum}; the deadline is not "
            "the optimal completion slot of this instance"
        )
    if prefix[-1].time != optimum:
        raise SolverError(
            f"canonical plan completes at slot {prefix[-1].time}, not the "
            f"claimed optimum {optimum}; the deadline is below optimal"
        )
    return tuple(prefix), search.explored
