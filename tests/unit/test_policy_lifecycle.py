"""The policy lifecycle shared by every scheduler of the evaluation.

Frontier policies bind lazily to each state's topology and schedule, so one
instance driven across systems decides exactly like a freshly prepared one.
Planned policies refuse to decide without ``prepare`` for the state's
topology and schedule.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.flooding import FloodingPolicy, LargestFirstPolicy
from repro.core.advance import Advance, BroadcastState
from repro.core.localized import LocalizedEModelPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.graphs import (
    FIGURE1_SOURCE,
    FIGURE2_SOURCE,
    figure1_topology,
    figure2_duty_schedule,
    figure2_topology,
)
from repro.network.topology import WSNTopology
from repro.sim.replay import PlannedPolicy
from repro.solvers import ExactPolicy

FRONTIER = [
    OptPolicy,
    GreedyOptPolicy,
    EModelPolicy,
    LocalizedEModelPolicy,
    LargestFirstPolicy,
    FloodingPolicy,
]
#: Each planned policy with whether it schedules the duty-cycle system
#: (frontier policies are driven through both).
PLANNED = [(Approx17Policy, True), (Approx26Policy, False), (ExactPolicy, False)]
#: The Table IV wake-up slots of :func:`figure2_duty_schedule` (rate 10).
FIGURE2_WAKEUPS = {1: [2, 12], 2: [4, 14], 3: [4, 14], 4: [6, 16], 5: [8, 18]}


def _switching_states() -> list[BroadcastState]:
    """Figure 2 states that switch between the synchronous system and the
    Table IV schedule, with runs of the same binding in between."""
    topo, schedule = figure2_topology(), figure2_duty_schedule()
    source = FIGURE2_SOURCE
    steps = [
        ({source}, 1, None),
        ({source}, 2, schedule),
        ({1, 2, 3}, 2, None),
        ({1, 2, 3}, 3, schedule),
        ({1, 2, 3}, 4, schedule),
        ({1, 2, 3, 4}, 3, None),
        ({1, 2, 3, 4}, 8, schedule),
        ({1, 2, 3}, 2, None),
    ]
    return [BroadcastState(topo, frozenset(w), t, s) for w, t, s in steps]


def _check_frontier(policy_cls) -> None:
    policy = policy_cls()
    for state in _switching_states():
        fresh = policy_cls()
        fresh.prepare(state.topology, state.schedule, FIGURE2_SOURCE)
        assert policy.select_advance(state) == fresh.select_advance(state)


def _check_planned(policy_cls, duty: bool) -> None:
    topo = figure2_topology()
    schedule = figure2_duty_schedule() if duty else None
    state = BroadcastState(topo, frozenset({FIGURE2_SOURCE}), 2, schedule)
    with pytest.raises(RuntimeError, match="prepare"):
        policy_cls().select_advance(state)
    policy = policy_cls()
    policy.prepare(topo, schedule, FIGURE2_SOURCE)
    other = BroadcastState(figure1_topology(), frozenset({FIGURE1_SOURCE}), 2, schedule)
    with pytest.raises(RuntimeError, match="prepare"):
        policy.select_advance(other)
    # The schedule is bound too: the duty plan refuses the same state under
    # a schedule that wakes the source a slot later (the source sleeps at
    # slot 2 there), a sync plan refuses the Table IV state W = {1} at 1.
    if duty:
        later = {**FIGURE2_WAKEUPS, FIGURE2_SOURCE: [3, 13]}
        restated = replace(state, schedule=WakeupSchedule.from_explicit(later, rate=10))
    else:
        restated = replace(state, time=1, schedule=figure2_duty_schedule())
    with pytest.raises(RuntimeError, match="prepare"):
        policy.select_advance(restated)


@pytest.mark.parametrize(
    "policy_cls, duty",
    [pytest.param(cls, None, id=cls.name) for cls in FRONTIER]
    + [pytest.param(cls, duty, id=cls.name) for cls, duty in PLANNED],
)
def test_lifecycle(policy_cls, duty):
    if duty is None:
        _check_frontier(policy_cls)
    else:
        _check_planned(policy_cls, duty)


@pytest.mark.parametrize(
    "policy_cls, duty",
    [pytest.param(cls, duty, id=cls.name) for cls, duty in PLANNED[:2]],
)
def test_planned_prepare_refuses_a_system_outside_systems(policy_cls, duty):
    # 17-approx schedules only the duty-cycle system, 26-approx only the
    # synchronous one; each refuses the other in prepare, before planning.
    refused = None if duty else figure2_duty_schedule()
    assert (refused is None) == ("sync" not in policy_cls.systems)
    with pytest.raises(ValueError, match="SOLVER_TIERS"):
        policy_cls().prepare(figure2_topology(), refused, FIGURE2_SOURCE)


class _ScriptedPlan(PlannedPolicy):
    """A planned policy whose plan is a fixed list, recording each request."""

    name = "scripted"

    def __init__(self, plan):
        self.script = list(plan)
        self.requests = []

    def _plan(self, topology, schedule, source, covered, time):
        self.requests.append((covered, time))
        return self.script


def _path():
    """The path 0 - 1 - 2 with a full-coverage plan from node 0 at slot 3."""
    topology = WSNTopology.from_edges(
        [(0, 1), (1, 2)], {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
    )
    plan = [
        Advance(3, frozenset({0}), frozenset({1})),
        Advance(5, frozenset({1}), frozenset({2})),
    ]
    return topology, plan


def test_planned_hint_before_prepare_promises_nothing():
    _, plan = _path()
    policy = _ScriptedPlan(plan)
    assert policy.next_decision_slot(1) is None
    assert policy.requests == []


def test_planned_hint_plans_once_from_the_source_alone():
    topology, plan = _path()
    policy = _ScriptedPlan(plan)
    policy.prepare(topology, None, 0)
    assert policy.next_decision_slot(1) == 3
    assert policy.next_decision_slot(4) == 5
    assert policy.requests == [(frozenset({0}), 1)]
    state = BroadcastState(topology, frozenset({0}), 3, None)
    assert policy.select_advance(state) == plan[0]
    assert policy.select_advance(replace(state, time=4)) is None
    assert len(policy.requests) == 1


def test_planned_select_advance_plans_from_the_state():
    topology, plan = _path()
    policy = _ScriptedPlan(plan[1:])
    policy.prepare(topology, None, 0)
    state = BroadcastState(topology, frozenset({0, 1}), 5, None)
    assert policy.select_advance(state) == plan[1]
    assert policy.requests == [(frozenset({0, 1}), 5)]
    assert policy.select_advance(replace(state, covered=frozenset({0, 1, 2}))) is None


def test_planned_prepare_discards_the_previous_plan():
    topology, plan = _path()
    policy = _ScriptedPlan(plan)
    policy.prepare(topology, None, 0)
    assert policy.next_decision_slot(1) == 3
    policy.prepare(topology, None, 0)
    assert policy.next_decision_slot(2) == 3
    assert policy.requests == [(frozenset({0}), 1), (frozenset({0}), 2)]


def test_planned_plan_short_of_full_coverage_raises():
    topology, plan = _path()
    policy = _ScriptedPlan(plan[:1])
    policy.prepare(topology, None, 0)
    with pytest.raises(RuntimeError, match="ends before full coverage"):
        policy.next_decision_slot(1)
