"""Planned scheduling policies wrapping the exact solver.

:class:`ExactPolicy` and :class:`BranchAndBoundPolicy` implement the
standard :class:`~repro.core.policies.SchedulingPolicy` interface, so the
optimal schedule runs **end-to-end through the simulation engines** — every
advance of the plan is re-validated against the network model (coverage,
wake-up slots, interference) exactly like any heuristic's, and the exact
tiers slot into sweeps, figures and the store like any other policy.

Both are *planned* policies in the sense of the 17/26-approximation
baselines: the plan is computed once (lazily, at the first scheduling
decision, because the broadcast start slot is only known then) and replayed
verbatim.  Replaying a fixed plan assumes reliable delivery and exclusive
use of the timeline, so — like the baselines — they set
``loss_tolerant = False`` and are rejected for lossy link models and
multi-source workloads (see ``SOLVER_TIERS`` in :mod:`repro.solvers` for
the capability matrix).
"""

from __future__ import annotations

from bisect import bisect_left
from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.solvers.branch_bound import DEFAULT_MAX_STATES, SolverPlan
from repro.solvers.exact import solve_broadcast

__all__ = ["ExactPolicy", "BranchAndBoundPolicy"]


class ExactPolicy(SchedulingPolicy):
    """Optimal minimum-latency broadcast as a planned policy.

    Solves with the ``"auto"`` value backend (the pure-python
    branch-and-bound); the replayed plan is the canonical optimal plan
    whichever backend supplies the value (the exact-solver determinism
    contract), so traces and records never depend on the installed
    libraries, the engine backend or the worker count.
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

    _backend = "auto"

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES) -> None:
        self._max_states = max_states
        self._topology: WSNTopology | None = None
        self._schedule: WakeupSchedule | None = None
        self._source: int | None = None
        self._plan: SolverPlan | None = None
        self._by_time: dict[int, Advance] = {}
        self._times: list[int] = []

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
        self._schedule = schedule
        self._source = source
        self._plan = None
        self._by_time = {}
        self._times = []

    def _solve(self, state: BroadcastState) -> None:
        assert self._source is not None
        plan = solve_broadcast(
            state.topology,
            self._source,
            schedule=state.schedule,
            start_time=state.time,
            backend=self._backend,
            max_states=self._max_states,
            covered=state.covered,
        )
        self._plan = plan
        self._by_time = {a.time: a for a in plan.advances}
        self._times = sorted(self._by_time)

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if self._topology is None or self._topology is not state.topology:
            raise RuntimeError(
                f"{type(self).__name__} needs prepare() for this topology "
                "before select_advance()"
            )
        if state.is_complete:
            return None
        if self._plan is None:
            self._solve(state)
        return self._by_time.get(state.time)

    def next_decision_slot(self, time: int) -> int | None:
        """The next planned transmission slot (no promise before solving)."""
        if self._plan is None:
            return None
        index = bisect_left(self._times, time)
        if index == len(self._times):
            return None if not self._times else self._times[-1] + 1_000_000_000
        return self._times[index]


class BranchAndBoundPolicy(ExactPolicy):
    """The exact tier under the explicit ``"branch-and-bound"`` backend name.

    Identical plans and records to :class:`ExactPolicy`, whose ``"auto"``
    backend resolves to the same search; the tier name keeps the solver
    catalog and stored records that select it stable.
    """

    name = "branch-and-bound"
    _backend = "branch-and-bound"
