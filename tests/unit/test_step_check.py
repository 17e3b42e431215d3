"""Differential tests of the mask step check (repro.sim.step).

Each case breaks exactly one rule of the network model in one advance, so
only that rule of :func:`~repro.sim.step.check_step` can catch it.  The
vectorized engine must raise the reference engine's exact error, and the
vectorized validator must return the reference validator's violation list.

The graph: 0-1, 0-2, 1-3, 2-3, 2-4, 3-6, 4-5, 5-6, source 0 at time 1.
"""

from __future__ import annotations

import pytest

from repro.core.advance import Advance
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.engine import RoundEngine, SlotEngine
from repro.sim.fast_engine import FastRoundEngine, FastSlotEngine
from repro.sim.step import check_step
from repro.sim.trace import BroadcastResult
from repro.sim.validation import validate_broadcast

EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 6), (4, 5), (5, 6)]


def _topology() -> WSNTopology:
    positions = {u: (float(u), float(u % 2)) for u in range(7)}
    return WSNTopology.from_edges(EDGES, positions)


def _advance(time, color, receivers, intended=None):
    return Advance(
        time=time,
        color=frozenset(color),
        receivers=frozenset(receivers),
        intended_receivers=None if intended is None else frozenset(intended),
    )


#: The first advance of every case that needs ``W = {0, 1, 2}`` at time 2.
OPENING = _advance(1, {0}, {1, 2})

#: name -> (advances, the bad advance's index).  Each bad advance breaks
#: exactly one rule.
CASES = {
    # 5 does not hold the message; N(0) and N(5) share no node, and the
    # receivers are N({0, 5}) \ W.
    "sender_without_message": ([_advance(1, {0, 5}, {1, 2, 4, 6})], 0),
    # 1 and 2 share the uncovered neighbour 3.
    "conflicting_pair": ([OPENING, _advance(2, {1, 2}, {3, 4})], 1),
    # 2 is missing from N(0) \ W.
    "wrong_receivers": ([_advance(1, {0}, {1})], 0),
    # 99 names no node.
    "unknown_color_id": ([_advance(1, {0, 99}, {1, 2})], 0),
    # The replay must go on past the unknown receiver.
    "unknown_receiver_id": ([_advance(1, {0}, {1, 2, 99}), _advance(2, {1}, {3})], 0),
}


class _Scripted(SchedulingPolicy):
    """Returns the scripted advance at its time, nothing otherwise."""

    name = "scripted"

    def __init__(self, advances):
        self._by_time = {advance.time: advance for advance in advances}

    def select_advance(self, state):
        return self._by_time.get(state.time)


def _trace(advances, *, synchronous=True):
    covered = {0}
    for advance in advances:
        covered |= advance.receivers
    return BroadcastResult(
        policy_name="scripted",
        source=0,
        start_time=1,
        end_time=advances[-1].time,
        covered=frozenset(covered),
        advances=tuple(advances),
        synchronous=synchronous,
    )


def _engine_error(engine, advances) -> str:
    limit = "max_rounds" if isinstance(engine, RoundEngine) else "max_slots"
    with pytest.raises(ValueError) as error:
        engine.run(_Scripted(advances), 0, **{limit: 5})
    return str(error.value)


def _assert_validators_agree(topology, trace, **kwargs):
    reference = validate_broadcast(topology, trace, **kwargs)
    assert reference, "the corrupted trace validated clean"
    assert validate_broadcast(topology, trace, backend="vectorized", **kwargs) == reference


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_engines_raise_the_same_error(case):
    topology = _topology()
    advances, _ = CASES[case]
    reference = _engine_error(RoundEngine(topology), advances)
    assert _engine_error(FastRoundEngine(topology), advances) == reference


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_validators_report_the_same_violations(case):
    topology = _topology()
    advances, _ = CASES[case]
    _assert_validators_agree(topology, _trace(advances), require_complete=False)


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_step_rejects_only_the_bad_advance(case):
    topology = _topology()
    advances, bad = CASES[case]
    covered = 1 << topology.index_of(0)
    for index, advance in enumerate(advances):
        masks = check_step(topology, advance, covered, -1)
        if index == bad:
            assert masks is None
            break
        covered |= masks[2]


def _sleeping_case():
    """Node 0 sends at slot 1 but wakes only at slot 2 (every rule else holds)."""
    schedule = WakeupSchedule.from_explicit({u: [2] for u in range(7)}, rate=2)
    return schedule, [_advance(1, {0}, {1, 2})]


def test_sleeping_sender_same_error_on_both_slot_engines():
    topology = _topology()
    schedule, advances = _sleeping_case()
    reference = _engine_error(SlotEngine(topology, schedule), advances)
    assert "sleeping transmitters" in reference
    assert _engine_error(FastSlotEngine(topology, schedule), advances) == reference


def test_sleeping_sender_same_violations_on_both_validators():
    topology = _topology()
    schedule, advances = _sleeping_case()
    _assert_validators_agree(
        topology,
        _trace(advances, synchronous=False),
        schedule=schedule,
        require_complete=False,
    )


@pytest.mark.parametrize(
    "advance",
    [
        # Delivered 4, which N(0) \ W does not hold; the intent is right.
        _advance(1, {0}, {1, 4}, intended={1, 2}),
        # A delivered subset, but the recorded intent misses 2.
        _advance(1, {0}, {1}, intended={1}),
    ],
    ids=["delivered_outside_the_model", "intent_differs_from_the_model"],
)
def test_lossy_violations_agree(advance):
    topology = _topology()
    _assert_validators_agree(
        topology, _trace([advance]), require_complete=False, lossy=True
    )
    assert check_step(topology, advance, 1 << topology.index_of(0), -1, lossy=True) is None
