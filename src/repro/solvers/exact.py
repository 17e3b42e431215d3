"""The exact-tier front door: optimal value + canonical plan.

:func:`solve_broadcast` is what the solver policies call: it computes the
optimal completion slot with the selected backend and then extracts the
canonical optimal plan with the deterministic deadline search of
:mod:`repro.solvers.branch_bound`.  Because every backend is exact, the
deadline — and therefore the extracted plan — is identical whichever
backend produced the value; only the reported ``backend`` string and the
wall-clock time differ (``benchmarks/test_solvers.py`` measures the
latter).
"""

from __future__ import annotations

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.solvers.branch_bound import (
    DEFAULT_MAX_STATES,
    SolverPlan,
    extract_plan,
    flood_completion_bound,
    minimum_completion,
)
from repro.solvers.ilp import minimum_completion_ilp

__all__ = ["solve_broadcast", "SOLVER_BACKENDS"]

#: Value backends of the exact tier.  ``"auto"`` resolves to the pure-python
#: branch-and-bound, which needs no solver library and beat the MILP at
#: every instance size measured up to the tier's cap; ``"ilp"`` opts in to
#: the scipy/HiGHS MILP.
SOLVER_BACKENDS = ("auto", "branch-and-bound", "ilp")


def solve_broadcast(
    topology: WSNTopology,
    source: int,
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    backend: str = "auto",
    max_states: int = DEFAULT_MAX_STATES,
    covered: frozenset[int] | None = None,
) -> SolverPlan:
    """Optimal broadcast schedule from ``source`` (or from ``covered``).

    Parameters mirror :func:`repro.sim.broadcast.run_broadcast` where they
    overlap; ``covered`` generalises the initial state for callers resuming
    a partially covered broadcast (defaults to ``{source}``).  The returned
    :class:`~repro.solvers.branch_bound.SolverPlan` replays through any
    engine backend unchanged.
    """
    if backend not in SOLVER_BACKENDS:
        raise ValueError(
            f"unknown solver backend {backend!r}; expected one of {SOLVER_BACKENDS}"
        )
    initial = frozenset({source}) if covered is None else frozenset(covered)
    if backend == "ilp":
        optimum = minimum_completion_ilp(
            topology, initial, schedule=schedule, start_time=start_time
        )
        lower_bound = flood_completion_bound(topology, initial, start_time, schedule)
        explored = 0
        backend_used = "ilp"
    else:
        optimum, lower_bound, explored = minimum_completion(
            topology,
            initial,
            schedule=schedule,
            start_time=start_time,
            max_states=max_states,
        )
        backend_used = "branch-and-bound"
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
        lower_bound=start_time - 1 if lower_bound is None else lower_bound,
        advances=advances,
        backend=backend_used,
        explored=explored + extract_explored,
    )
