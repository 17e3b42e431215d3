"""Streaming broadcast execution: per-advance emission, O(1) trace memory.

A materialized :class:`~repro.sim.trace.BroadcastResult` holds every advance
of the broadcast.  For the paper's grids (50-300 nodes) that is nothing; for
very large deployments the advance list — each entry carrying transmitter
and receiver frozensets — becomes the dominant allocation of a run, well
beyond the ``(n, n)`` adjacency view.  :func:`stream_broadcast` runs the
same vectorized slot loop as ``run_broadcast`` but hands each recorded
advance to a caller-supplied ``sink`` the moment it is applied and keeps
**no advance list at all**: once the sink returns, the engine drops its
reference, so a sink that aggregates (counts, histograms, an on-disk
writer) runs a 100k-node broadcast in memory proportional to the network,
not to the trace.

The stream is the vectorized engine's kernel generator ``_steps`` run with
one message — the same code path ``run_broadcast`` materializes, after the
same input checks, start alignment and default limit — so the sequence of
advances (and the returned :class:`StreamSummary`'s metrics) is
bit-identical to the materialized trace's.  The memory-regression test in
``tests/unit/test_streaming.py`` pins the no-materialization property with
weak references: after each sink call returns, the advance must be
collectable.

Only the numpy backend (``"vectorized"``) streams; the reference engine is
the materialized oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.policies import SchedulingPolicy
from repro.core.advance import Advance
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.obs import events as _events
from repro.obs.bus import EVENT_BUS
from repro.sim.broadcast import engine_for, require_replanning
from repro.sim.engine import node_id
from repro.sim.links import LinkModel, ReliableLinks

__all__ = ["StreamSummary", "StreamSinkError", "stream_broadcast"]


class StreamSinkError(RuntimeError):
    """A streaming sink raised mid-broadcast (context attached).

    The engine cannot roll a half-stepped broadcast back, so the run is
    abandoned — but with the failing advance, its slot, and how many
    advances had already streamed, instead of a bare traceback from
    somewhere inside the slot loop.  The original exception rides along as
    ``__cause__``.
    """

    def __init__(
        self, advance: Advance, num_advances: int, error: BaseException
    ) -> None:
        self.advance = advance
        self.num_advances = num_advances
        super().__init__(
            f"stream sink failed on advance {num_advances} at time "
            f"{advance.time} ({len(advance.color)} transmitter(s), "
            f"{len(advance.receivers)} receiver(s)): "
            f"{type(error).__name__}: {error}"
        )

#: Backends whose engines expose the streaming generator.
STREAMING_BACKENDS = ("vectorized",)


@dataclass(frozen=True)
class StreamSummary:
    """Aggregate outcome of one streamed broadcast (no advance list).

    Carries exactly the scalar metrics of a materialized
    :class:`~repro.sim.trace.BroadcastResult` — same definitions, same
    values — plus the covered-node count instead of the covered set.
    """

    policy_name: str
    source: int
    start_time: int
    end_time: int
    covered_count: int
    num_advances: int
    total_transmissions: int
    failed_deliveries: int
    synchronous: bool
    cycle_rate: int

    @property
    def latency(self) -> int:
        """Elapsed rounds/slots ``t_e - t_s + 1`` (see ``BroadcastResult``)."""
        return self.end_time - self.start_time + 1

    @property
    def idle_time(self) -> int:
        """Rounds/slots in the broadcast window without any transmission."""
        return self.latency - self.num_advances


def stream_broadcast(
    topology: WSNTopology,
    source: int,
    policy: SchedulingPolicy,
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    align_start: bool = False,
    max_time: int | None = None,
    engine: str = "vectorized",
    link_model: LinkModel | None = None,
    sink: Callable[[Advance], None] | None = None,
) -> StreamSummary:
    """Run one broadcast, streaming each advance to ``sink``.

    The keyword surface mirrors :func:`~repro.sim.broadcast.run_broadcast`
    (single-source form); ``sink`` receives every recorded advance in
    chronological order (``None`` discards them, leaving only the summary).
    The advance sequence and all summary metrics are bit-identical to the
    materialized ``run_broadcast`` trace of the same parameters.  A sink
    that raises aborts the stream as a :class:`StreamSinkError` carrying
    the failing advance, its slot, and the advance count so far (the
    broadcast is half-stepped and cannot be resumed).

    Validation is the one deliberate difference: re-checking a trace needs
    the whole trace, so streamed runs are not re-validated — the engine's
    own per-advance checks (coverage, awake transmitters, interference,
    receiver equality) still apply.  Stream into a list and call
    :func:`~repro.sim.validation.validate_broadcast` to get both.
    """
    if engine not in STREAMING_BACKENDS:
        raise ValueError(
            f"engine {engine!r} cannot stream; streaming backends: "
            f"{list(STREAMING_BACKENDS)} (the reference engine materializes "
            "traces — it is the oracle the streaming kernel is tested against)"
        )
    link = ReliableLinks() if link_model is None else link_model
    runner = engine_for(engine, topology, schedule, link)
    source = node_id(source)
    require_replanning([policy], link)
    start_time, steps = runner._open(
        [policy], (source,), start_time, align_start, max_time
    )
    policy.prepare(topology, schedule, source)

    num_advances = 0
    total_transmissions = 0
    failed_deliveries = 0
    while True:
        try:
            _, advance = next(steps)
        except StopIteration as done:
            (covered,), (end_time,) = done.value
            break
        num_advances += 1
        total_transmissions += len(advance.color)
        failed_deliveries += advance.failed_deliveries
        if EVENT_BUS.active:
            EVENT_BUS.emit(
                _events.SlotAdvanced(
                    advance.time, len(advance.color), len(advance.receivers)
                )
            )
        if sink is not None:
            try:
                sink(advance)
            except Exception as error:
                raise StreamSinkError(advance, num_advances, error) from error
        # Drop the local reference before the next step so the advance is
        # collectable as soon as the sink lets go of it.
        del advance

    return StreamSummary(
        policy_name=policy.name,
        source=source,
        start_time=start_time,
        end_time=end_time,
        covered_count=len(covered),
        num_advances=num_advances,
        total_transmissions=total_transmissions,
        failed_deliveries=failed_deliveries,
        synchronous=schedule is None,
        cycle_rate=1 if schedule is None else schedule.rate,
    )
