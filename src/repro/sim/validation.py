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
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import numpy as np

from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.bitset import bitset_view
from repro.network.interference import conflicting_pairs, receivers_of
from repro.network.topology import WSNTopology
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

    ``backend="vectorized"`` runs the same checks over the numpy bitset view
    (:mod:`repro.network.bitset`) and produces the identical violation list;
    it is what ``run_broadcast(engine="vectorized")`` uses so that validation
    does not hand the hot path back to Python set loops.  The reference
    backend remains the oracle the vectorized one is tested against.

    ``lossy=True`` validates a trace produced over a lossy link model: the
    recorded receivers must be a subset of the model's expected receivers
    (the *delivered* subset), and any recorded ``intended_receivers`` must
    equal the expected receivers exactly.
    """
    if backend == "vectorized":
        return _validate_vectorized(topology, result, schedule, require_complete, lossy)
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
        if schedule is not None:
            asleep = [
                u for u in advance.color if not schedule.is_active(u, advance.time)
            ]
            if asleep:
                violations.append(f"{prefix}: sleeping transmitters {sorted(asleep)}")
        conflicts = conflicting_pairs(topology, advance.color, frozenset(covered))
        if conflicts:
            violations.append(f"{prefix}: conflicting transmitter pairs {conflicts}")

        expected = receivers_of(topology, advance.color, frozenset(covered))
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


def _validate_vectorized(
    topology: WSNTopology,
    result: BroadcastResult,
    schedule: WakeupSchedule | None,
    require_complete: bool,
    lossy: bool = False,
) -> list[str]:
    """Array-based twin of the reference validator (identical output).

    Unlike the engine (which must check advances one at a time, with the
    policy in the loop), post-hoc validation sees the whole trace at once,
    so every model constraint is evaluated for *all* advances in a handful
    of whole-trace array operations: membership matrices for colours and
    receivers, a cumulative-OR coverage prefix, and one matrix product for
    the hear counts.  The happy path — the only one that matters for speed —
    touches no per-advance Python loop; when any constraint fails, the
    reference validator re-runs to produce its exact violation messages.
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
    if not advances:
        return fail()
    view = bitset_view(topology)
    index = view._index  # noqa: SLF001 - sibling module of the same backend
    known = index.keys()
    if (
        result.source not in known
        or not result.covered <= known
        or any(
            not (
                advance.color <= known
                and advance.receivers <= known
                and advance.intended <= known
            )
            for advance in advances
        )
    ):
        # Traces referencing unknown nodes cannot be mapped onto the array
        # view; the reference validator reports them node by node.
        return fail()

    num_advances = len(advances)
    num_nodes = view.num_nodes
    times = np.fromiter((a.time for a in advances), dtype=np.int64, count=num_advances)
    if np.any(np.diff(times, prepend=result.start_time - 1) <= 0):
        return fail()
    if times[0] < result.start_time or times[-1] != result.end_time:
        return fail()

    # Membership matrices: row i describes advance i.
    arange = np.arange(num_advances, dtype=np.int64)
    color_rows = np.repeat(arange, [len(a.color) for a in advances])
    recv_rows = np.repeat(arange, [len(a.receivers) for a in advances])
    lookup = view.id_lookup
    if lookup is not None:
        # Membership was verified above, so a plain flatten plus one table
        # gather suffices (no per-element dict lookups).
        color_cols = lookup[
            np.fromiter((u for a in advances for u in a.color), dtype=np.int64)
        ]
        recv_cols = lookup[
            np.fromiter((u for a in advances for u in a.receivers), dtype=np.int64)
        ]
    else:
        color_cols = np.fromiter(
            (index[u] for a in advances for u in a.color), dtype=np.int64
        )
        recv_cols = np.fromiter(
            (index[u] for a in advances for u in a.receivers), dtype=np.int64
        )
    color_mat = np.zeros((num_advances, num_nodes), dtype=np.float32)
    color_mat[color_rows, color_cols] = 1.0
    recv_mat = np.zeros((num_advances, num_nodes), dtype=bool)
    recv_mat[recv_rows, recv_cols] = True

    # Coverage before each advance: source plus the cumulative OR of the
    # recorded receivers of all earlier advances.
    covered_before = np.zeros((num_advances, num_nodes), dtype=bool)
    covered_before[0, index[result.source]] = True
    if num_advances > 1:
        np.logical_or.accumulate(recv_mat[:-1], axis=0, out=covered_before[1:, :])
        covered_before[1:, :] |= covered_before[0]

    # 1. Every transmitter already held the message (gather, not a full
    # matrix product: the transmitter count is tiny next to A x n).
    if not covered_before[color_rows, color_cols].all():
        return fail()
    # 2. (duty-cycle) every transmitter was awake in its slot.
    if schedule is not None:
        window = window_for(schedule, view)
        if not window.active_pairs(color_cols, times[color_rows]).all():
            return fail()
    # 3+4. Hear counts give both the conflict test (an uncovered node hearing
    # >= 2 transmitters is a common uncovered neighbour of some pair) and the
    # expected receivers (uncovered nodes hearing >= 1).  float32 matmul hits
    # BLAS and is exact for counts far beyond any node degree.
    hear = color_mat @ view.adjacency_f32
    uncovered_before = ~covered_before
    if np.any((hear >= 2.0) & uncovered_before):
        return fail()
    expected_mat = (hear >= 1.0) & uncovered_before
    if lossy:
        # Delivered receivers must be a subset of the expected ones, and any
        # recorded intent must match the model exactly.  Advances without a
        # recorded intent (reliable advances inside a lossy validation) fall
        # back to their receivers, for which equality is the subset check.
        if np.any(recv_mat & ~expected_mat):
            return fail()
        intended_rows = np.repeat(arange, [len(a.intended) for a in advances])
        if lookup is not None:
            intended_cols = lookup[
                np.fromiter((u for a in advances for u in a.intended), dtype=np.int64)
            ]
        else:
            intended_cols = np.fromiter(
                (index[u] for a in advances for u in a.intended), dtype=np.int64
            )
        intended_mat = np.zeros((num_advances, num_nodes), dtype=bool)
        intended_mat[intended_rows, intended_cols] = True
        has_intent = np.fromiter(
            (a.intended_receivers is not None for a in advances),
            dtype=bool,
            count=num_advances,
        )
        if not np.array_equal(
            intended_mat[has_intent], expected_mat[has_intent]
        ):
            return fail()
    elif not np.array_equal(expected_mat, recv_mat):
        return fail()
    # 5. No duplicate delivery is implied by check 4: recorded receivers
    # equal (or, lossy, are a subset of) the expected ones, which are
    # restricted to ~covered_before (the complement of source + everything
    # delivered earlier), so a duplicate necessarily fails the check above
    # and takes the fail() path.

    covered_final = covered_before[-1] | recv_mat[-1]
    if result.covered == topology.node_set:
        if not covered_final.all():
            return fail()
    elif not np.array_equal(covered_final, view.bool_from_nodes(result.covered)):
        return fail()
    if require_complete and not covered_final.all():
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
