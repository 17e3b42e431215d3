"""Exhaustive brute-force oracle for the exact solver tier.

This module deliberately does **not** reuse the branch-and-bound's search
space reductions: at every slot it tries *every* conflict-free subset of
the awake frontier candidates — non-maximal subsets and idling included —
so it independently verifies the two dominance arguments (maximality and
no-useful-idling) the branch-and-bound relies on, in addition to its
arithmetic.  The only bound is the horizon (a feasible greedy completion
slot by default), which is sound because idling past a feasible completion
can never be optimal.  Exponential in both nodes and slots; intended for
the ``≤ 8``-node verification grid of the unit tests, nothing more.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.coloring import frontier_candidates
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import conflict_free, receivers_of
from repro.network.topology import WSNTopology
from repro.solvers.branch_bound import SolverError, check_instance, greedy_completion

__all__ = ["brute_force_completion"]

_INFEASIBLE = None


def brute_force_completion(
    topology: WSNTopology,
    covered: frozenset[int],
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    horizon: int | None = None,
) -> int:
    """Optimal completion slot by exhaustive enumeration.

    ``horizon`` defaults to the greedy completion slot (a feasible
    schedule, hence an upper bound on the optimum).  Raises
    :class:`~repro.solvers.branch_bound.SolverError` for disconnected
    topologies and :class:`ValueError` for malformed instances
    (:func:`~repro.solvers.branch_bound.check_instance`).
    """
    check_instance(topology, covered, schedule, start_time)
    full = topology.node_set
    if covered == full:
        return start_time - 1
    if horizon is None:
        horizon = greedy_completion(topology, covered, start_time, schedule)
    if horizon is None:
        raise SolverError(
            "topology is disconnected: some node can never receive the message"
        )

    memo: dict[tuple[frozenset[int], int], int | None] = {}

    def best_from(covered: frozenset[int], time: int) -> int | None:
        """Earliest completion slot from ``(covered, time)``, ``None`` if
        nothing completes by the horizon."""
        if time > horizon:
            return _INFEASIBLE
        key = (covered, time)
        if key in memo:
            return memo[key]
        candidates = frontier_candidates(topology, covered)
        if schedule is not None:
            candidates = [u for u in candidates if schedule.is_active(u, time)]
        best: int | None = best_from(covered, time + 1)  # idle this slot
        for size in range(1, len(candidates) + 1):
            for subset in combinations(sorted(candidates), size):
                color = frozenset(subset)
                if not conflict_free(topology, color, covered):
                    continue
                child = covered | receivers_of(topology, color, covered)
                outcome = time if child == full else best_from(child, time + 1)
                if outcome is not None and (best is None or outcome < best):
                    best = outcome
        memo[key] = best
        return best

    result = best_from(covered, start_time)
    if result is None:  # pragma: no cover - the greedy horizon is feasible
        raise SolverError(f"no schedule completes by the horizon {horizon}")
    return result
