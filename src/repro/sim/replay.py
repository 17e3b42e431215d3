"""Replay a recorded broadcast trace through any engine.

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

The exact solver tier's :class:`~repro.solvers.ExactPolicy` subclasses it:
it solves at its first decision and replays the optimal plan through the
same index (:meth:`ReplayPolicy._load`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.sim.trace import BroadcastResult

__all__ = ["ReplayPolicy"]


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
