"""The policy lifecycle shared by every scheduler of the evaluation.

Frontier policies bind lazily to each state's topology and schedule, so one
instance driven across systems decides exactly like a freshly prepared one.
Planned policies refuse to decide without ``prepare`` for the state's
topology.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.flooding import FloodingPolicy, LargestFirstPolicy
from repro.core.advance import BroadcastState
from repro.core.localized import LocalizedEModelPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy
from repro.network.graphs import (
    FIGURE1_SOURCE,
    FIGURE2_SOURCE,
    figure1_topology,
    figure2_duty_schedule,
    figure2_topology,
)
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
