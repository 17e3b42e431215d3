"""The exact solver tier as a planned scheduling policy.

:class:`ExactPolicy` implements the standard
:class:`~repro.core.policies.SchedulingPolicy` interface, so the optimal
schedule runs **end-to-end through the simulation engines** — every
advance of the plan is re-validated against the network model (coverage,
wake-up slots, interference) exactly like any heuristic's, and the exact
tier slots into sweeps, figures and the store like any other policy.

It is a :class:`~repro.sim.replay.PlannedPolicy`, like the 17/26-
approximation baselines: the plan is solved once, at the first slot the
policy is asked about (the broadcast start slot is only known then), and
replayed verbatim.  Replaying a fixed plan assumes reliable delivery and
exclusive use of the timeline, so the tier is rejected for lossy link
models and multi-source workloads (see ``SOLVER_TIERS`` in
:mod:`repro.solvers` for the capability matrix).
"""

from __future__ import annotations

from repro.core.advance import Advance
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.replay import PlannedPolicy
from repro.solvers.branch_bound import DEFAULT_MAX_STATES, SolverPlan, solve_broadcast

__all__ = ["ExactPolicy"]


class ExactPolicy(PlannedPolicy):
    """Optimal minimum-latency broadcast as a planned policy.

    Solves with the pure-python branch-and-bound and replays its canonical
    optimal plan (the exact-solver determinism contract), so traces and
    records never depend on the installed libraries, the engine backend or
    the worker count.
    """

    name = "exact"
    #: The plan transmits at every slot with an awake frontier candidate
    #: along its own trajectory (idling is dominated), so idle-slot
    #: skipping by the vectorized engine is trace-preserving.
    frontier_driven = True

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES) -> None:
        self._max_states = max_states
        self._solved: SolverPlan | None = None

    @property
    def plan(self) -> SolverPlan | None:
        """The solved optimal plan (``None`` until the first slot asked)."""
        return self._solved if self._planned else None

    def _plan(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
        covered: frozenset[int],
        time: int,
    ) -> tuple[Advance, ...]:
        self._solved = solve_broadcast(
            topology,
            source,
            schedule=schedule,
            start_time=time,
            max_states=self._max_states,
            covered=covered,
        )
        return self._solved.advances
