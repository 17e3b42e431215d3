"""Independent validation of broadcast traces.

The engines already reject invalid advances while simulating; this module
re-checks a finished :class:`~repro.sim.trace.BroadcastResult` *from scratch*
(replaying coverage from the source) so that tests, property-based checks and
the experiment harness can assert the network-model invariants without
trusting the engine's internal bookkeeping.  The checks are exactly the
paper's model constraints:

1.  every transmitter held the message before transmitting;
2.  (duty-cycle) every transmitter was awake in its transmission slot;
3.  transmitters of the same round/slot are mutually interference-free with
    respect to the nodes that still needed the message;
4.  the recorded receivers are exactly the uncovered neighbours of the
    transmitters — or, for a lossy trace (``lossy=True``), a *subset* of
    them, with the advance's ``intended_receivers`` matching the model's
    expected receivers exactly;
5.  coverage is complete at the end and every node received the message
    exactly once (no duplicate delivery in the trace);
6.  times are within ``[start_time, end_time]`` and strictly increasing.

Lossy traces (produced by ``run_broadcast(..., link_model=...)`` with a
lossy :class:`~repro.sim.links.LinkModel`) are validated against the
*delivered* receivers on both backends: every constraint above still holds,
only the receiver-equality of check 4 relaxes to subset-plus-intent.

Two backends give one verdict.  ``"reference"`` checks the trace with
frozensets and names every violation.  ``"vectorized"`` replays coverage
as an int mask through :func:`~repro.sim.step.check_step`, the check the
vectorized engine runs on each advance; on any failure it re-runs the
reference validator, so the violation list is the reference's own.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.interference import conflicting_pairs, receivers_of
from repro.network.topology import WSNTopology
from repro.sim.step import check_step
from repro.sim.trace import BroadcastResult, MultiBroadcastResult

__all__ = [
    "ScheduleViolation",
    "validate_broadcast",
    "assert_valid",
    "validate_multi_broadcast",
    "assert_valid_multi",
]


class ScheduleViolation(AssertionError):
    """A broadcast trace violates the paper's network model."""


def validate_broadcast(
    topology: WSNTopology,
    result: BroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    backend: str = "reference",
    lossy: bool = False,
) -> list[str]:
    """Return a list of violation descriptions (empty when the trace is valid).

    ``backend="vectorized"`` replays the trace through the mask step check
    (:func:`~repro.sim.step.check_step`) and produces the identical
    violation list, re-running the reference checks only when it finds a
    violation; it is what ``run_broadcast(engine="vectorized")`` uses.  The
    reference backend remains the oracle the vectorized one is tested
    against.

    ``lossy=True`` validates a trace produced over a lossy link model: the
    recorded receivers must be a subset of the model's expected receivers
    (the *delivered* subset), and any recorded ``intended_receivers`` must
    equal the expected receivers exactly.
    """
    if backend == "vectorized":
        return _validate_masks(topology, result, schedule, require_complete, lossy)
    if backend != "reference":
        raise ValueError(
            f"unknown validation backend {backend!r}; expected 'reference' or 'vectorized'"
        )
    violations: list[str] = []
    covered: set[int] = {result.source}
    delivered: dict[int, int] = {result.source: result.start_time - 1}
    previous_time = result.start_time - 1

    for index, advance in enumerate(result.advances):
        prefix = f"advance #{index} (t={advance.time})"
        if advance.time <= previous_time:
            violations.append(f"{prefix}: times not strictly increasing")
        previous_time = advance.time
        if advance.time < result.start_time or advance.time > result.end_time:
            violations.append(f"{prefix}: outside [start_time, end_time]")

        not_holding = advance.color - covered
        if not_holding:
            violations.append(
                f"{prefix}: transmitters without the message {sorted(not_holding)}"
            )
        # The model rules read the known nodes only: an unknown transmitter
        # is reported above, an unknown receiver below.
        color = topology.node_set.intersection(advance.color)
        known = topology.node_set.intersection(covered)
        if schedule is not None:
            asleep = [u for u in color if not schedule.is_active(u, advance.time)]
            if asleep:
                violations.append(f"{prefix}: sleeping transmitters {sorted(asleep)}")
        conflicts = conflicting_pairs(topology, color, known)
        if conflicts:
            violations.append(f"{prefix}: conflicting transmitter pairs {conflicts}")

        expected = receivers_of(topology, color, known)
        if lossy:
            if advance.intended_receivers is not None and (
                advance.intended_receivers != expected
            ):
                violations.append(
                    f"{prefix}: intended receivers "
                    f"{sorted(advance.intended_receivers)} differ from the "
                    f"model's {sorted(expected)}"
                )
            if not advance.receivers <= expected:
                extra = advance.receivers - expected
                violations.append(
                    f"{prefix}: delivered receivers include nodes the model "
                    f"could not reach {sorted(extra)}"
                )
        elif expected != advance.receivers:
            violations.append(
                f"{prefix}: recorded receivers {sorted(advance.receivers)} differ "
                f"from the model's {sorted(expected)}"
            )
        duplicates = advance.receivers & delivered.keys()
        if duplicates:
            violations.append(
                f"{prefix}: nodes received the message twice {sorted(duplicates)}"
            )
        for node in advance.receivers:
            delivered[node] = advance.time
        covered |= advance.receivers

    if frozenset(covered) != result.covered:
        violations.append(
            "result.covered does not match the coverage replayed from the trace"
        )
    if require_complete and frozenset(covered) != topology.node_set:
        missing = topology.node_set - covered
        violations.append(f"broadcast incomplete: {len(missing)} nodes never covered")
    if result.advances and result.end_time != result.advances[-1].time:
        violations.append(
            "end_time does not match the time of the last recorded advance"
        )
    return violations


def _validate_masks(
    topology: WSNTopology,
    result: BroadcastResult,
    schedule: WakeupSchedule | None,
    require_complete: bool,
    lossy: bool,
) -> list[str]:
    """The reference validator's verdict, from one mask replay of the trace.

    Replays coverage as an int mask through :func:`~repro.sim.step.check_step`,
    the check the vectorized engine runs on every advance, plus the
    trace-level checks (times, final coverage, completeness, end time).
    The passing path builds no violation text; on any failure the
    reference validator re-runs to produce its exact violation list.
    Duplicate deliveries need no test of their own: the recorded receivers
    lie in ``N(C) \\ W``, so none was covered before.
    """

    def fail() -> list[str]:
        return validate_broadcast(
            topology,
            result,
            schedule=schedule,
            require_complete=require_complete,
            lossy=lossy,
        )

    advances = result.advances
    if not advances or result.source not in topology:
        return fail()
    window = None if schedule is None else window_for(schedule, topology)
    covered = 1 << topology.index_of(result.source)
    previous = result.start_time - 1
    for advance in advances:
        time = advance.time
        if time <= previous or time < 1:
            return fail()
        previous = time
        awake = -1 if window is None else window.awake_mask(time)
        masks = check_step(topology, advance, covered, awake, lossy=lossy)
        if masks is None:
            return fail()
        covered |= masks[2]
    if previous != result.end_time:
        return fail()
    full = topology.full_mask
    if result.covered == topology.node_set:
        if covered != full:
            return fail()
    elif result.covered - topology.node_set or (
        topology.mask_from_nodes(result.covered) != covered
    ):
        return fail()
    if require_complete and covered != full:
        return fail()
    return []


def validate_multi_broadcast(
    topology: WSNTopology,
    result: MultiBroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    backend: str = "reference",
    lossy: bool = False,
) -> list[str]:
    """Validate a multi-source trace (empty list when valid).

    Two layers of checks:

    1. **Per-message validity** — every message's :class:`BroadcastResult`
       must be a valid single-source trace on its own (same checks as
       :func:`validate_broadcast`, on the requested ``backend``): the
       contention kernel defers advances but never bends the paper's
       network model for an individual wavefront.
    2. **Cross-message contention rules** — for every round/slot shared by
       two messages: no node serves two messages at once (transmitter or
       intended receiver), and no intended receiver of one message is in
       range of another message's transmitter (the collision would destroy
       the delivery).  These are evaluated on the *intended* receivers, so
       they hold for lossy traces too.
    """
    violations: list[str] = []
    seen_sources: set[int] = set()
    for index, message in enumerate(result.messages):
        if message.source != result.sources[index]:
            violations.append(
                f"message {index}: trace source {message.source} does not match "
                f"result.sources[{index}] = {result.sources[index]}"
            )
        if message.source in seen_sources:
            violations.append(f"message {index}: duplicate source {message.source}")
        seen_sources.add(message.source)
        if message.start_time != result.start_time:
            violations.append(
                f"message {index}: start_time {message.start_time} differs from "
                f"the shared timeline start {result.start_time}"
            )
        for violation in validate_broadcast(
            topology,
            message,
            schedule=schedule,
            require_complete=require_complete,
            backend=backend,
            lossy=lossy,
        ):
            violations.append(f"message {index} (source {message.source}): {violation}")
    if len(result.messages) < 2:
        return violations

    # Cross-message checks per shared round/slot, on the intended receivers.
    by_time: dict[int, list[tuple[int, frozenset[int], frozenset[int]]]] = defaultdict(list)
    for index, message in enumerate(result.messages):
        for advance in message.advances:
            by_time[advance.time].append((index, advance.color, advance.intended))
    for time in sorted(by_time):
        entries = by_time[time]
        if len(entries) < 2:
            continue
        for (i, color_i, recv_i), (j, color_j, recv_j) in combinations(entries, 2):
            overlap = (color_i | recv_i) & (color_j | recv_j)
            if overlap:
                violations.append(
                    f"t={time}: nodes {sorted(overlap)} serve messages {i} and "
                    f"{j} simultaneously"
                )
            mask_i = topology.mask_from_nodes(color_i)
            mask_j = topology.mask_from_nodes(color_j)
            jammed = {
                r for r in recv_i if topology.neighbor_mask(r) & mask_j
            } | {
                r for r in recv_j if topology.neighbor_mask(r) & mask_i
            }
            if jammed:
                violations.append(
                    f"t={time}: receivers {sorted(jammed)} of messages {i}/{j} "
                    "are in range of the other message's transmitters "
                    "(cross-message collision)"
                )
    return violations


def assert_valid_multi(
    topology: WSNTopology,
    result: MultiBroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    backend: str = "reference",
    lossy: bool = False,
) -> None:
    """Raise :class:`ScheduleViolation` when a multi-source trace is invalid."""
    violations = validate_multi_broadcast(
        topology,
        result,
        schedule=schedule,
        require_complete=require_complete,
        backend=backend,
        lossy=lossy,
    )
    if violations:
        details = "\n  - ".join(violations)
        raise ScheduleViolation(
            f"multi-source broadcast trace ({result.num_messages} messages) "
            f"violates the network model:\n  - {details}"
        )


def assert_valid(
    topology: WSNTopology,
    result: BroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    backend: str = "reference",
    lossy: bool = False,
) -> None:
    """Raise :class:`ScheduleViolation` when the trace violates the model."""
    violations = validate_broadcast(
        topology,
        result,
        schedule=schedule,
        require_complete=require_complete,
        backend=backend,
        lossy=lossy,
    )
    if violations:
        details = "\n  - ".join(violations)
        raise ScheduleViolation(
            f"broadcast trace from policy {result.policy_name!r} violates the "
            f"network model:\n  - {details}"
        )
