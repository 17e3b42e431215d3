"""Replay a recorded broadcast trace, or a planned schedule, through any engine.

:class:`ReplayPolicy` answers ``select_advance`` from a recorded
:class:`~repro.sim.trace.BroadcastResult` instead of computing a schedule.
Driving a replay through an engine re-validates every advance against the
network model, which makes it useful for

* auditing externally produced traces (the engine raises on any violation),
* regression-testing engine backends against each other with *zero* policy
  cost (the backend microbenchmark in ``benchmarks/test_engine_backends.py``
  uses it to time the engines' own machinery in isolation), and
* re-rendering or re-measuring a stored schedule without re-running the
  scheduler that produced it.

:class:`PlannedPolicy` is the replay of a schedule computed once per
broadcast: the 17/26-approximation baselines and the exact solver tier's
:class:`~repro.solvers.ExactPolicy` build their plan at the first slot they
are asked about and replay it through the same index
(:meth:`ReplayPolicy._load`).
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import bisect_left
from typing import Sequence

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.trace import BroadcastResult

__all__ = ["ReplayPolicy", "PlannedPolicy"]

_SYSTEM_NAMES = {"sync": "round-based synchronous", "duty": "duty-cycle"}


class ReplayPolicy(SchedulingPolicy):
    """Replays the advances of a recorded trace at their recorded times."""

    def __init__(self, trace: BroadcastResult) -> None:
        self.name = trace.policy_name
        self.trace = trace
        self._load(trace.advances)
        # A recorded advance with no receivers may sit at a slot with no
        # awake frontier node, which the idle-slot skip would jump over;
        # such traces must be replayed slot by slot.
        self.frontier_driven = all(a.receivers for a in trace.advances)

    def _load(self, advances: Sequence[Advance]) -> None:
        """Index ``advances`` by their time (at most one per slot)."""
        self._by_time: dict[int, Advance] = {a.time: a for a in advances}
        if len(self._by_time) != len(advances):
            raise ValueError("trace contains two advances at the same time")
        self._times = sorted(self._by_time)

    def select_advance(self, state: BroadcastState) -> Advance | None:
        return self._by_time.get(state.time)

    def next_decision_slot(self, time: int) -> int | None:
        """The next recorded transmission slot (the replay acts at no other)."""
        index = bisect_left(self._times, time)
        if index == len(self._times):
            # Past the recorded trace: no further transmissions ever happen,
            # which the engine discovers by timing out, as the reference
            # engine would.
            return None if not self._times else self._times[-1] + 1_000_000_000
        return self._times[index]


class PlannedPolicy(ReplayPolicy):
    """A scheduler that builds one plan per broadcast and replays it.

    :meth:`prepare` binds the topology, schedule and source.  The plan is
    built by :meth:`_plan` at the first slot the policy is asked about (by
    :meth:`next_decision_slot` or :meth:`select_advance`), because the start
    slot is only known then, and replayed from then on.  Replaying assumes
    reliable delivery and a timeline of its own, so planned policies are
    not ``loss_tolerant``.
    """

    loss_tolerant = False

    _topology: WSNTopology | None = None
    _schedule: WakeupSchedule | None = None
    _source: int
    _planned = False
    _times: Sequence[int] = ()

    @abstractmethod
    def _plan(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
        covered: frozenset[int],
        time: int,
    ) -> Sequence[Advance]:
        """The broadcast's advances from ``covered`` at slot ``time``."""

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        system = "sync" if schedule is None else "duty"
        if system not in self.systems:
            raise ValueError(
                f"{type(self).__name__} schedules the "
                f"{' and '.join(_SYSTEM_NAMES[s] for s in self.systems)} system, "
                f"not the {_SYSTEM_NAMES[system]} one; the solver registry maps "
                "each system to its tiers (repro.solvers.SOLVER_TIERS, --list-solvers)"
            )
        self._topology, self._schedule, self._source = topology, schedule, source
        self._planned = False

    def _ensure_plan(self, covered: frozenset[int], time: int) -> None:
        """Build the plan from ``(covered, time)`` unless it is built."""
        if self._planned:
            return
        assert self._topology is not None
        advances = self._plan(self._topology, self._schedule, self._source, covered, time)
        if len(covered.union(*(a.receivers for a in advances))) < self._topology.num_nodes:
            raise RuntimeError(f"{type(self).__name__}'s plan ends before full coverage")
        self._load(advances)
        self._planned = True

    def next_decision_slot(self, time: int) -> int | None:
        """The plan's next transmission slot (no promise before :meth:`prepare`).

        Asked first, the hint plans from the broadcast's start state, the
        source alone at slot ``time``.
        """
        if self._topology is None:
            return None
        self._ensure_plan(frozenset({self._source}), time)
        return super().next_decision_slot(time)

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if self._topology is not state.topology or self._schedule is not state.schedule:
            raise RuntimeError(
                f"{type(self).__name__}.prepare(topology, schedule, source) must "
                "run for the state's topology and schedule before select_advance"
            )
        if state.is_complete:
            return None
        self._ensure_plan(state.covered, state.time)
        return super().select_advance(state)
