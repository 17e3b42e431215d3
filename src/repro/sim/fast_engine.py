"""Vectorized broadcast engines (the ``engine="vectorized"`` backend).

:class:`FastRoundEngine` and :class:`FastSlotEngine` subclass
:class:`~repro.sim.engine.RoundEngine` and
:class:`~repro.sim.engine.SlotEngine`: the front (constructors, input
checks, default limits, start alignment, result assembly, the
:class:`~repro.sim.links.LinkModel` strategy) is the reference engines'
own, and only the kernel is replaced.  The traces are
*bit-identical* to the reference kernel's, single- and multi-source,
reliable and lossy alike (the parity suites in ``tests/property`` and the
benchmarks in ``benchmarks/test_engine_backends.py`` /
``benchmarks/test_lossy_engines.py`` enforce this).  What changes is how
the engine-side work is carried out:

* each message's ``W`` is an int mask (bit ``i`` is
  ``topology.node_ids[i]``) kept beside its frozenset, and the policies
  receive it as :attr:`~repro.core.advance.BroadcastState.covered_mask`,
  so a decision never rebuilds it;
* every advance is checked by one mask pass,
  :func:`~repro.sim.step.check_step` (senders covered and awake, no
  uncovered node hearing two senders, receivers exactly ``N(C) \\ W``);
  only a failing advance reaches the reference ``_check_advance``, which
  raises its exact error.  The cross-message deferral predicate runs on
  the same bigint masks as the reference kernel's;
* wake-up schedules are read through the shared wake-up index
  (:class:`~repro.dutycycle.window.ActivityWindow`, the per-slot awake
  masks the time counter's search also uses), so "when does the next
  frontier node wake up?" is a scan over those masks;
* on lossy links, :meth:`~repro.sim.links.LinkModel.deliver_mask` takes
  the colour and ``W`` masks and draws an advance's deliveries as one
  block, consuming the loss RNG exactly as the reference engine's
  set-based delivery does; the recorded receivers are the intended ones
  minus the failed ones, so only the failures are walked back to node ids;
* when every policy declares itself frontier-driven (OPT, G-OPT,
  E-model, flooding, largest-first — see
  :attr:`~repro.core.policies.SchedulingPolicy.frontier_driven`) the slot
  engine *skips* slots in which no awake covered node of any spreading
  message has an uncovered neighbour, because such policies promise to
  answer ``None`` there with no state change.  Policies that keep the
  fail-safe default (e.g. the layered 17-approximation, which may transmit
  a parent whose children were already covered) are offered every slot,
  exactly like the reference engine; the traces are identical either way.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import frontier_mask
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.window import ActivityWindow, window_for
from repro.sim.engine import (
    RoundEngine,
    SlotEngine,
    Steps,
    _EngineBase,
    promised_slot,
    timeout,
)
from repro.sim.step import StepMasks, check_step

__all__ = ["FastRoundEngine", "FastSlotEngine"]


def _next_frontier_slot(window: ActivityWindow, frontier: int, time: int, limit: int) -> int:
    """The first slot in ``[time, limit]`` with an awake frontier node, else ``limit + 1``."""
    next_slot = window.next_awake(frontier, time)
    return limit + 1 if next_slot is None or next_slot > limit else next_slot


class _VectorizedKernel(_EngineBase):
    """The int-mask kernel of both vectorized engines."""

    def _check_step(
        self,
        advance: Advance,
        covered: frozenset[int],
        covered_mask: int,
        time: int,
        awake: int,
        check_conflicts: bool,
    ) -> StepMasks:
        """Validate ``advance``; return its ``(colour, heard, receivers)`` masks.

        One :func:`~repro.sim.step.check_step` pass decides.  Only on a
        failure does the reference engine's ``_check_advance`` run, to raise
        exactly its error and message.
        """
        masks = None
        if advance.time == time:
            masks = check_step(
                self.topology, advance, covered_mask, awake, conflicts=check_conflicts
            )
        if masks is None:
            self._check_advance(advance, covered, time, check_conflicts=check_conflicts)
            raise AssertionError(
                f"the mask step check rejected an advance at time {time} "
                "that the reference check accepts"
            )
        return masks

    def _steps(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        limit: int,
    ) -> Steps:
        """Int-mask twin of :meth:`repro.sim.engine._EngineBase._steps`.

        Same hint rule, same rotating priority order, same deferral
        predicate on the same bigint masks, same link-RNG consumption order.
        Each message's ``W`` is held as a mask beside its frozenset, and
        the policies receive both.
        """
        topology = self.topology
        schedule = self.schedule
        full = topology.full_mask
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        k = len(sources)
        hints = [policy.next_decision_slot for policy in policies]
        check_conflicts = [
            getattr(policy, "interference_free", True) for policy in policies
        ]
        skip_idle = schedule is not None and all(
            getattr(policy, "frontier_driven", False) for policy in policies
        )
        window = None if schedule is None else window_for(schedule, topology)
        orders = [[(o + j) % k for j in range(k)] for o in range(k)]

        covered = [frozenset({source}) for source in sources]
        covered_mask = [1 << topology.index_of(source) for source in sources]
        # The idle-slot skip's frontier: covered nodes with an uncovered
        # neighbour, over every spreading message; recomputed after a
        # delivery.
        frontier: int | None = None

        end_times = [start_time - 1] * k
        live = [m for m in range(k) if covered_mask[m] != full]
        time = start_time

        while live:
            hinted = promised_slot(hints, live, time)
            if hinted is not None and hinted > time:
                time = hinted
            # When every policy promised a decision at this very slot,
            # offering it is the cheapest correct move; the frontier scan
            # is for policies that make no such promise.
            if skip_idle and hinted != time and time <= limit:
                assert window is not None
                if frontier is None:
                    frontier = 0
                    for m in live:
                        frontier |= frontier_mask(topology, covered_mask[m])
                time = _next_frontier_slot(window, frontier, time, limit)
            if time > limit:
                raise timeout(limit, [len(c) for c in covered], topology.num_nodes)
            awake = -1 if window is None else window.awake_mask(time)
            busy_mask = None
            for position, m in enumerate(orders[(time - start_time) % k]):
                if covered_mask[m] == full:
                    continue
                state = BroadcastState.for_engine(
                    topology, covered[m], time, schedule, covered_mask[m]
                )
                advance = policies[m].select_advance(state)
                if advance is None:
                    continue
                color_mask, cand_heard, recv_mask = self._check_step(
                    advance, covered[m], covered_mask[m], time, awake, check_conflicts[m]
                )
                if busy_mask is not None and (
                    ((color_mask | recv_mask) & busy_mask)
                    or (recv_mask & heard_mask)
                    or (rx_mask & cand_heard)
                ):
                    # Cross-message contention: defer this message; its
                    # frontier is unchanged, so the policy re-plans later.
                    continue
                if link.lossless:
                    recorded = advance
                    delivered = advance.receivers
                    delivered_mask = recv_mask
                else:
                    delivered_mask = link.deliver_mask(
                        link_state, topology, color_mask, covered_mask[m]
                    )
                    delivered = advance.receivers - topology.nodes_from_mask(
                        recv_mask & ~delivered_mask
                    )
                    recorded = dataclasses.replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                if delivered_mask:
                    frontier = None
                    covered[m] = covered[m] | delivered
                    covered_mask[m] |= delivered_mask
                    end_times[m] = time
                    if covered_mask[m] == full:
                        live.remove(m)
                if position + 1 < k:
                    if busy_mask is None:
                        busy_mask = heard_mask = rx_mask = 0
                    busy_mask |= color_mask | recv_mask
                    heard_mask |= cand_heard
                    rx_mask |= recv_mask
                yield m, recorded
            time += 1

        return covered, end_times


class FastRoundEngine(_VectorizedKernel, RoundEngine):
    """Vectorized round-based engine (parity twin of ``RoundEngine``)."""


class FastSlotEngine(_VectorizedKernel, SlotEngine):
    """Vectorized duty-cycle engine (parity twin of ``SlotEngine``)."""
