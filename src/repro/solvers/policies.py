"""The exact solver tier as a planned scheduling policy.

:class:`ExactPolicy` implements the standard
:class:`~repro.core.policies.SchedulingPolicy` interface, so the optimal
schedule runs **end-to-end through the simulation engines** — every
advance of the plan is re-validated against the network model (coverage,
wake-up slots, interference) exactly like any heuristic's, and the exact
tier slots into sweeps, figures and the store like any other policy.

It is a *planned* policy in the sense of the 17/26-approximation
baselines: the plan is computed once (lazily, at the first scheduling
decision, because the broadcast start slot is only known then) and
replayed verbatim by :class:`~repro.sim.replay.ReplayPolicy`, which it
subclasses.  Replaying a fixed plan assumes reliable delivery and exclusive
use of the timeline, so — like the baselines — it sets
``loss_tolerant = False`` and is rejected for lossy link models and
multi-source workloads (see ``SOLVER_TIERS`` in :mod:`repro.solvers` for
the capability matrix).
"""

from __future__ import annotations

from repro.core.advance import Advance, BroadcastState
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.replay import ReplayPolicy
from repro.solvers.branch_bound import DEFAULT_MAX_STATES, SolverPlan, solve_broadcast

__all__ = ["ExactPolicy"]


class ExactPolicy(ReplayPolicy):
    """Optimal minimum-latency broadcast as a planned policy.

    Solves with the pure-python branch-and-bound and replays its canonical
    optimal plan (the exact-solver determinism contract), so traces and
    records never depend on the installed libraries, the engine backend or
    the worker count.
    """

    name = "exact"
    interference_free = True
    #: Planned: replays a fixed optimal schedule, so it cannot re-plan
    #: around failed deliveries or multi-source slot contention.
    loss_tolerant = False
    #: The plan transmits at every slot with an awake frontier candidate
    #: along its own trajectory (idling is dominated), so idle-slot
    #: skipping by the vectorized engine is trace-preserving.
    frontier_driven = True

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES) -> None:
        self._max_states = max_states
        self._topology: WSNTopology | None = None
        self._source: int | None = None
        self._plan: SolverPlan | None = None
        self._load(())

    @property
    def plan(self) -> SolverPlan | None:
        """The solved optimal plan (``None`` until the first decision)."""
        return self._plan

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        self._topology = topology
        self._source = source
        self._plan = None
        self._load(())

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if self._topology is None or self._topology is not state.topology:
            raise RuntimeError(
                f"{type(self).__name__} needs prepare() for this topology "
                "before select_advance()"
            )
        if state.is_complete:
            return None
        if self._plan is None:
            self._plan = solve_broadcast(
                state.topology,
                self._source,
                schedule=state.schedule,
                start_time=state.time,
                max_states=self._max_states,
                covered=state.covered,
            )
            self._load(self._plan.advances)
        return super().select_advance(state)
