"""High-level entry point: run one broadcast with any policy.

:func:`run_broadcast` is the function most users (and all examples,
experiments and benchmarks) call: it wires the policy's
:meth:`~repro.core.policies.SchedulingPolicy.prepare` hook, picks the right
engine for the system model (round-based when no wake-up schedule is given,
slot-based otherwise), applies the requested
:class:`~repro.sim.links.LinkModel` (reliable by default) and returns the
full :class:`~repro.sim.trace.BroadcastResult`.

Passing a *sequence* of sources instead of a single node id selects the
**multi-source workload**: ``k`` concurrent messages share the timeline
(and the wake-up schedule) and contend for slots under the paper's
interference rules — see :mod:`repro.sim.engine` for the contention
semantics.  The result is then a
:class:`~repro.sim.trace.MultiBroadcastResult` with one complete
per-message trace per source.  A single node id is the one-element case:
it runs through the same engine call and returns that call's only
message trace.

:data:`ENGINE_BACKENDS` is the *single* registry of engine backends: the
experiment configuration and the CLI resolve engine classes through it, so
a new backend plugs in here and is immediately selectable everywhere.
"""

from __future__ import annotations

import copy
import operator
from typing import Sequence

from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.engine import RoundEngine, SlotEngine, node_id
from repro.sim.fast_engine import FastRoundEngine, FastSlotEngine
from repro.sim.links import LinkModel, ReliableLinks
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.sim.validation import assert_valid, assert_valid_multi

__all__ = ["run_broadcast", "ENGINE_BACKENDS"]

#: Engine backends selectable via ``run_broadcast(..., engine=...)``:
#: ``(round_engine_cls, slot_engine_cls)`` per backend name.  Every class
#: is (or subclasses) :class:`RoundEngine` / :class:`SlotEngine`, whose
#: front supplies the constructors and the ``run`` / ``run_multi`` entry
#: points; a backend brings its own kernel.
ENGINE_BACKENDS = {
    "reference": (RoundEngine, SlotEngine),
    "vectorized": (FastRoundEngine, FastSlotEngine),
}


def engine_for(
    engine: str,
    topology: WSNTopology,
    schedule: WakeupSchedule | None,
    link: LinkModel,
) -> RoundEngine | SlotEngine:
    """The ``engine`` backend's engine for the system ``schedule`` selects."""
    try:
        round_engine_cls, slot_engine_cls = ENGINE_BACKENDS[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {engine!r}; expected one of "
            f"{sorted(ENGINE_BACKENDS)}"
        ) from None
    if schedule is None:
        return round_engine_cls(topology, link_model=link)
    return slot_engine_cls(topology, schedule, link_model=link)


def require_replanning(policies: Sequence[SchedulingPolicy], link: LinkModel) -> None:
    """Reject planned policies where deliveries may fail or be deferred.

    Lossy links and multi-source contention both leave a node uncovered
    where a fixed plan assumed it covered; only policies that re-plan from
    the actual covered set (:attr:`SchedulingPolicy.loss_tolerant`) cope.
    """
    for policy in policies:
        if getattr(policy, "loss_tolerant", True):
            continue
        if not link.lossless:
            raise ValueError(
                f"policy {policy.name!r} replays a fixed plan that assumes "
                "reliable delivery and cannot run over lossy links; pick "
                "a loss-tolerant tier from the solver registry "
                "(repro.solvers.SOLVER_TIERS, --list-solvers) or a "
                "frontier scheduler (OPT, G-OPT, E-model, largest-first) "
                "for the loss axis"
            )
        if len(policies) > 1:
            raise ValueError(
                f"policy {policy.name!r} replays a fixed plan and cannot "
                "share the timeline with concurrent messages: multi-source "
                "slot contention defers advances, which requires frontier "
                "re-planning — pick a loss-tolerant tier from the solver "
                "registry (repro.solvers.SOLVER_TIERS, --list-solvers) or "
                "a frontier scheduler (OPT, G-OPT, E-model, largest-first)"
            )


def _sources_of(source: object) -> tuple[tuple[int, ...], bool]:
    """``(sources, is_sequence)``: a node id becomes a 1-tuple."""
    try:
        return (operator.index(source),), False
    except TypeError:
        pass
    # A stray string would iterate char-by-char into the multi-source path.
    if isinstance(source, (str, bytes)) or not hasattr(source, "__iter__"):
        raise TypeError(
            f"source must be a node id or a sequence of node ids, got {source!r}"
        )
    return tuple(node_id(item) for item in source), True


def _resolve_policies(
    policy: SchedulingPolicy | Sequence[SchedulingPolicy],
    num_messages: int,
) -> list[SchedulingPolicy]:
    """One scheduler instance per message.

    A single policy instance is deep-copied for the extra messages (each
    wavefront needs its own per-broadcast state); a sequence must provide
    exactly one policy per source.
    """
    if isinstance(policy, SchedulingPolicy):
        return [policy] + [copy.deepcopy(policy) for _ in range(num_messages - 1)]
    policies = list(policy)
    if len(policies) != num_messages:
        raise ValueError(
            f"need one policy per source: got {len(policies)} policies for "
            f"{num_messages} sources"
        )
    for item in policies:
        if not isinstance(item, SchedulingPolicy):
            raise TypeError(f"not a SchedulingPolicy: {item!r}")
    return policies


def run_broadcast(
    topology: WSNTopology,
    source: int | Sequence[int],
    policy: SchedulingPolicy | Sequence[SchedulingPolicy],
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    align_start: bool = False,
    max_time: int | None = None,
    validate: bool = True,
    engine: str = "reference",
    link_model: LinkModel | None = None,
) -> BroadcastResult | MultiBroadcastResult:
    """Broadcast from ``source`` under ``policy`` and return the trace.

    Parameters
    ----------
    topology:
        The network.
    source:
        The node that holds the message at ``start_time`` — or a sequence
        of ``k`` distinct nodes for the multi-source workload, in which
        case ``k`` concurrent messages spread on one shared timeline and
        the return value is a :class:`MultiBroadcastResult`.  Node ids
        must be integers (NumPy integers included); anything else,
        floats too, raises :class:`TypeError`.
    policy:
        Any scheduling policy (the paper's OPT / G-OPT / E-model, a baseline,
        or a user-supplied implementation of :class:`SchedulingPolicy`).
        Multi-source runs need one scheduler *instance* per message: pass a
        sequence of ``k`` policies, or a single instance to have it
        deep-copied per message.  With ``k > 1`` every policy must be
        frontier-driven in the :attr:`SchedulingPolicy.loss_tolerant` sense
        (contended advances are deferred and re-planned; planned baselines
        replaying a fixed schedule are rejected loudly).
    schedule:
        A wake-up schedule selects the asynchronous duty-cycle system;
        ``None`` selects the round-based synchronous system.
    start_time:
        ``t_s``, 1-based.
    align_start:
        Duty-cycle only: move ``t_s`` to the source's first wake-up slot at
        or after ``start_time`` (the paper's examples assume ``t_s ∈ T(s)``).
        For multi-source runs the shared start moves to the *earliest*
        wake-up slot of any source.
    max_time:
        Optional cap on simulated rounds/slots (defaults to a generous bound
        derived from the baselines' worst case, stretched by the link
        model's expected retransmission factor — and, multi-source, by the
        message count).
    validate:
        Re-validate the produced trace against the network model before
        returning (cheap; disable only in tight benchmarking loops).  Lossy
        traces are validated against the *delivered* receivers; multi-source
        traces are validated per message plus the cross-message contention
        rules.
    engine:
        ``"reference"`` (the frozenset/bigint engines, the correctness
        oracle) or ``"vectorized"`` (the int-mask backend of
        :mod:`repro.sim.fast_engine`, which checks every advance with the
        mask step check of :mod:`repro.sim.step` and validates the trace by
        replaying it through the same check).  Both produce bit-identical
        traces for any link model and any number of sources; the
        vectorized backend is the fast path for large sweeps.
    link_model:
        Delivery semantics: ``None`` / :class:`~repro.sim.links.ReliableLinks`
        for the paper's model, or
        :class:`~repro.sim.links.IndependentLossLinks` for independent
        per-link failures (§VI robustness).  Any ``engine`` combines with
        any link model; the traces are bit-identical per (model, seed)
        across backends.

    Returns
    -------
    BroadcastResult | MultiBroadcastResult
        The complete trace; ``result.latency`` is the paper's ``P(A)`` for
        ``start_time=1`` (for multi-source runs: the makespan of the
        slowest message).
    """
    link = ReliableLinks() if link_model is None else link_model
    runner = engine_for(engine, topology, schedule, link)
    sources, multi = _sources_of(source)
    if not multi and not isinstance(policy, SchedulingPolicy):
        raise TypeError(
            "a single-source broadcast takes a single SchedulingPolicy; pass "
            "a sequence of sources for the multi-source workload"
        )
    policies = _resolve_policies(policy, len(sources))
    require_replanning(policies, link)
    start_time, steps = runner._open(
        policies, sources, start_time, align_start, max_time
    )
    for item, item_source in zip(policies, sources):
        item.prepare(topology, schedule, item_source)
    result = runner._collect(policies, sources, start_time, steps)
    check = assert_valid_multi
    if not multi:
        result, check = result.messages[0], assert_valid
    if validate:
        check(
            topology,
            result,
            schedule=schedule,
            backend=engine,
            lossy=not link.lossless,
        )
    return result
