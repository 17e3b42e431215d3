"""Exact minimum-latency broadcast by deterministic branch-and-bound.

This is the exact solver tier (:mod:`repro.solvers`): pure python, no
solver library required.  :func:`solve_broadcast` is its front door: the
optimal value from :func:`minimum_completion`, then the canonical optimal
plan from :func:`extract_plan`.  The search
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

The search is :class:`repro.core.search.ExactSearch` over every maximal
colour; the functions here are its frozenset-in entry points, each running
:func:`check_instance` and converting ``W`` once.  It prunes with
:func:`flood_completion_bound`, the completion slot if interference
vanished: hop distance in the synchronous system, and in the duty-cycle
system a Dijkstra relaxation over each node's own wake-up slots, which is
at least hop distance but usually far below hop distance times the cycle
length.  The incumbent is :func:`greedy_completion` (the first maximal
colour at every decision), and a child whose coverage is a subset of a
sibling's is dropped (monotonicity again).

Determinism contract
--------------------
Given ``(topology, source, schedule, start_time)`` the functions here are
pure: branching order is the sorted order of
``enumerate_color_classes`` (larger colours first, then lexicographic), so
:func:`extract_plan` returns the **canonical optimal plan** — the first
optimum-achieving leaf in that fixed depth-first order.  The ILP of
:mod:`repro.solvers.ilp` is an independent check of the *value* only
(tests and benchmarks call it directly); it never feeds a plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.advance import Advance
from repro.core.coloring import ColorScheme
from repro.core.search import ExactSearch, SearchBudgetExceeded, UnreachableNodes
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.utils.validation import require

__all__ = [
    "SolverError",
    "SolverLimitExceeded",
    "SolverPlan",
    "check_instance",
    "flood_completion_bound",
    "greedy_completion",
    "minimum_completion",
    "extract_plan",
    "solve_broadcast",
    "DEFAULT_MAX_STATES",
]

#: Search-state budget of the branch-and-bound (states *expanded*; the
#: value search and the plan extraction each get one).  Generous for the
#: small-``n`` instances the exact tier accepts; exceeding it raises
#: :class:`SolverLimitExceeded` instead of hanging.
DEFAULT_MAX_STATES = 500_000

#: The exact tier's colour provider: every maximal admissible colour.
_ALL_MAXIMAL = ColorScheme("exhaustive")


class SolverError(RuntimeError):
    """The exact solver cannot handle this instance."""


class SolverLimitExceeded(SolverError):
    """The branch-and-bound exhausted its search-state budget."""


def _limit_exceeded(max_states: int) -> SolverLimitExceeded:
    return SolverLimitExceeded(
        f"branch-and-bound exceeded {max_states} search states; "
        "the instance is too large for the exact tier "
        "(see the instance-size limits in docs/solvers.md)"
    )


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
    explored: int

    @property
    def latency(self) -> int:
        """The paper's ``P(A)`` of the optimal schedule."""
        return max(self.optimum - self.start_time + 1, 0)


def check_instance(
    topology: WSNTopology,
    covered: frozenset[int],
    schedule: WakeupSchedule | None,
    start_time: int,
) -> None:
    """Reject a malformed instance with :class:`ValueError`.

    Shared by every value entry point of the exact tier (this module, the
    brute-force oracle and the ILP): a non-positive start slot, an empty or
    unknown covered set, or a wake-up schedule missing some node.
    """
    require(start_time >= 1, "start_time is 1-based")
    unknown = covered - topology.node_set
    require(not unknown, f"covered contains unknown nodes: {sorted(unknown)}")
    require(bool(covered), "need at least one initially covered node")
    if schedule is not None:
        missing = set(topology.node_ids) - set(schedule.node_ids)
        require(
            not missing,
            f"wake-up schedule missing nodes {sorted(missing)}",
        )


def _search(
    topology: WSNTopology, schedule: WakeupSchedule | None, max_states: int
) -> ExactSearch:
    return ExactSearch(topology, schedule, _ALL_MAXIMAL, max_states=max_states)


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
    """
    return _search(topology, schedule, 0).lower_bound(topology.mask_from_nodes(covered), time)


def greedy_completion(
    topology: WSNTopology,
    covered: frozenset[int],
    start_time: int,
    schedule: WakeupSchedule | None,
) -> int | None:
    """Completion slot of the greedy descent (first maximal colour each slot).

    A feasible schedule, used as the initial incumbent of the value search
    and as the default horizon of the brute-force oracle and the ILP.
    ``None`` for disconnected topologies.
    """
    try:
        return _search(topology, schedule, 0).descent(
            topology.mask_from_nodes(covered), start_time
        )
    except UnreachableNodes:
        return None


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
    check_instance(topology, covered, schedule, start_time)
    search = _search(topology, schedule, max_states)
    mask = topology.mask_from_nodes(covered)
    root_bound = search.lower_bound(mask, start_time)
    if root_bound is None:
        raise SolverError(
            "topology is disconnected: some node can never receive the message"
        )
    try:
        optimum = search.minimum(mask, start_time)
    except SearchBudgetExceeded as exc:
        raise _limit_exceeded(max_states) from exc
    return optimum, root_bound, search.stats.expansions


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
    :func:`minimum_completion`).  Returns ``(advances, explored_states)``.
    """
    check_instance(topology, covered, schedule, start_time)
    search = _search(topology, schedule, max_states)
    try:
        advances = search.plan(topology.mask_from_nodes(covered), start_time, optimum)
    except SearchBudgetExceeded as exc:
        raise _limit_exceeded(max_states) from exc
    if advances is None:
        raise SolverError(
            f"no schedule completes by slot {optimum}; the deadline is not "
            "the optimal completion slot of this instance"
        )
    if advances and advances[-1].time != optimum:
        raise SolverError(
            f"canonical plan completes at slot {advances[-1].time}, not the "
            f"claimed optimum {optimum}; the deadline is below optimal"
        )
    return advances, search.stats.expansions


def solve_broadcast(
    topology: WSNTopology,
    source: int,
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
    covered: frozenset[int] | None = None,
) -> SolverPlan:
    """Optimal broadcast schedule from ``source`` (or from ``covered``).

    Parameters mirror :func:`repro.sim.broadcast.run_broadcast` where they
    overlap; ``covered`` generalises the initial state for callers resuming
    a partially covered broadcast (defaults to ``{source}``).  The returned
    :class:`SolverPlan` replays through any engine backend unchanged.
    """
    initial = frozenset({source}) if covered is None else frozenset(covered)
    optimum, lower_bound, explored = minimum_completion(
        topology,
        initial,
        schedule=schedule,
        start_time=start_time,
        max_states=max_states,
    )
    advances, extract_explored = extract_plan(
        topology,
        initial,
        optimum,
        schedule=schedule,
        start_time=start_time,
        max_states=max_states,
    )
    return SolverPlan(
        source=source,
        start_time=start_time,
        optimum=optimum,
        lower_bound=lower_bound,
        advances=advances,
        explored=explored + extract_explored,
    )
