"""Vectorized broadcast engines (the ``engine="vectorized"`` backend).

:class:`FastRoundEngine` and :class:`FastSlotEngine` subclass
:class:`~repro.sim.engine.RoundEngine` and
:class:`~repro.sim.engine.SlotEngine`: the front (constructors, ``run`` and
``run_multi``, input checks, default limits, start alignment, result
assembly, the :class:`~repro.sim.links.LinkModel` strategy) is the
reference engines' own, and only the kernel is replaced.  The traces are
*bit-identical* to the reference kernel's, single- and multi-source,
reliable and lossy alike (the parity suites in ``tests/property`` and the
benchmarks in ``benchmarks/test_engine_backends.py`` /
``benchmarks/test_lossy_engines.py`` enforce this).  What changes is how
the engine-side work is carried out:

* coverage and receiver sets are boolean vectors over the
  :class:`~repro.network.bitset.BitsetTopology` view, so interference
  checking, advance validation and the cross-message deferral predicate
  are matrix slices instead of Python set loops;
* wake-up schedules are read through the shared wake-up index
  (:class:`~repro.dutycycle.window.ActivityWindow`, the lazily grown
  activity matrix the time counter's search also uses), so "when does the
  next frontier node wake up?" is a scan over per-slot awake masks;
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
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.window import ActivityWindow, window_for
from repro.network.bitset import BitsetTopology, bitset_view
from repro.sim.engine import (
    RoundEngine,
    SlotEngine,
    Steps,
    _EngineBase,
    promised_slot,
    timeout,
)

__all__ = ["FastRoundEngine", "FastSlotEngine"]


def _next_frontier_slot(window: ActivityWindow, frontier: int, time: int, limit: int) -> int:
    """The first slot in ``[time, limit]`` with an awake frontier node, else ``limit + 1``."""
    next_slot = window.next_awake(frontier, time)
    return limit + 1 if next_slot is None or next_slot > limit else next_slot


class _VectorizedKernel(_EngineBase):
    """The numpy-bitset kernel of both vectorized engines."""

    @cached_property
    def _view(self) -> BitsetTopology:
        return bitset_view(self.topology)

    def _check_advance(
        self,
        advance: Advance,
        covered: frozenset[int],
        covered_bool: np.ndarray,
        time: int,
        window: ActivityWindow | None,
        *,
        check_conflicts: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate ``advance``; return (transmitter rows, receivers bool, receiver rows).

        Raises exactly the errors (and messages) of the reference engine's
        ``_check_advance``; the transmitter/receiver representations are
        returned so the caller can apply the link model and the coverage
        union without re-deriving them.
        """
        view = self._view
        if advance.time != time:
            raise ValueError(
                f"policy returned an advance for time {advance.time}, expected {time}"
            )
        not_covered = advance.color - covered
        if not_covered:
            raise ValueError(
                f"policy scheduled transmitters that do not hold the message: "
                f"{sorted(not_covered)}"
            )
        tx_idx = view.indices(advance.color)
        if window is not None:
            awake = window.active_rows(tx_idx, time)
            if not awake.all():
                asleep = [int(u) for u in view.node_ids[tx_idx[~awake]]]
                raise ValueError(
                    f"policy scheduled sleeping transmitters at slot {time}: {sorted(asleep)}"
                )
        conflict, expected_bool = view.check_and_receivers(tx_idx, covered_bool)
        if check_conflicts and conflict:
            conflicts = view.conflicting_pairs(tx_idx, covered_bool)
            raise ValueError(
                f"policy scheduled conflicting transmitters at time {time}: {conflicts}"
            )
        # Set equality without materialising the expected frozenset: the
        # recorded receivers are a set, so "same cardinality and every
        # member expected" is equivalence.  Unknown node ids cannot match
        # anything, so they raise the same mismatch error as the reference.
        try:
            recorded_idx = view.indices(advance.receivers)
        except KeyError:
            recorded_idx = None
        if recorded_idx is None or len(recorded_idx) != int(
            np.count_nonzero(expected_bool)
        ) or not expected_bool[recorded_idx].all():
            raise ValueError(
                "advance.receivers does not match the uncovered neighbours of its "
                f"transmitters at time {time}"
            )
        return tx_idx, expected_bool, recorded_idx

    def _steps(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        limit: int,
    ) -> Steps:
        """Vectorized twin of :meth:`repro.sim.engine._EngineBase._steps`.

        Same hint rule, same rotating priority order, same deferral
        predicate (on boolean vectors instead of bigint masks), same
        link-RNG consumption order.  A generator, so the streaming driver
        (:mod:`repro.sim.streaming`) holds no advance list: a consumer that
        does not keep the yielded advances runs in memory independent of
        the trace length.
        """
        topology = self.topology
        schedule = self.schedule
        view = self._view
        num_nodes = view.num_nodes
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
        window = None if schedule is None else window_for(schedule, view)
        orders = [[(o + j) % k for j in range(k)] for o in range(k)]

        covered = [frozenset({source}) for source in sources]
        rows = [view.index_of(source) for source in sources]
        covered_bool = [np.zeros(num_nodes, dtype=bool) for _ in sources]
        for m, row in enumerate(rows):
            covered_bool[m][row] = True
        covered_count = [1] * k
        # The idle-slot skip's frontier (covered nodes with >= 1 uncovered
        # neighbour) is tracked incrementally: the per-node count of
        # uncovered neighbours only decreases, by the adjacency columns of
        # each advance's receivers.  One 1-D array per message.
        uncovered_degree = [
            view.degrees.astype(np.int64)
            - view.hear_counts(np.asarray([row], dtype=np.int64))
            for row in rows
        ] if skip_idle else []
        frontier: int | None = None

        end_times = [start_time - 1] * k
        live = [m for m in range(k) if covered_count[m] != num_nodes]
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
                    awake = None
                    for m in live:
                        spread = covered_bool[m] & (uncovered_degree[m] > 0)
                        awake = spread if awake is None else awake | spread
                    frontier = view.mask_from_bool(awake)
                time = _next_frontier_slot(window, frontier, time, limit)
            if time > limit:
                raise timeout(limit, covered_count, num_nodes)
            busy = None
            for position, m in enumerate(orders[(time - start_time) % k]):
                if covered_count[m] == num_nodes:
                    continue
                state = BroadcastState.for_engine(topology, covered[m], time, schedule)
                advance = policies[m].select_advance(state)
                if advance is None:
                    continue
                tx_idx, receivers_bool, receivers_idx = self._check_advance(
                    advance,
                    covered[m],
                    covered_bool[m],
                    time,
                    window,
                    check_conflicts=check_conflicts[m],
                )
                cand_heard = None
                if busy is not None:
                    cand_heard = view.hears_any(tx_idx)
                    if (
                        busy[tx_idx].any()
                        or (receivers_bool & (busy | heard)).any()
                        or (rx & cand_heard).any()
                    ):
                        # Cross-message contention: defer this message; its
                        # frontier is unchanged, so the policy re-plans later.
                        continue
                if link.lossless:
                    recorded = advance
                    delivered = advance.receivers
                    delivered_bool = receivers_bool
                    delivered_idx = receivers_idx
                else:
                    delivered_bool = link.deliver_bool(
                        link_state, view, tx_idx, receivers_bool, covered_bool[m]
                    )
                    delivered = view.nodes_from_bool(delivered_bool)
                    delivered_idx = np.flatnonzero(delivered_bool)
                    recorded = dataclasses.replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                if delivered:
                    covered[m] = covered[m] | delivered
                    covered_bool[m] |= delivered_bool
                    covered_count[m] += len(delivered)
                    if skip_idle:
                        uncovered_degree[m] -= view.adjacency_u8[
                            :, delivered_idx
                        ].sum(axis=1, dtype=np.int64)
                        frontier = None
                    end_times[m] = time
                    if covered_count[m] == num_nodes:
                        live.remove(m)
                if position + 1 < k:
                    if busy is None:
                        busy = np.zeros(num_nodes, dtype=bool)
                        heard = np.zeros(num_nodes, dtype=bool)
                        rx = np.zeros(num_nodes, dtype=bool)
                    if cand_heard is None:
                        cand_heard = view.hears_any(tx_idx)
                    busy[tx_idx] = True
                    busy |= receivers_bool
                    heard |= cand_heard
                    rx |= receivers_bool
                yield m, recorded
            time += 1

        return covered, end_times


class FastRoundEngine(_VectorizedKernel, RoundEngine):
    """Vectorized round-based engine (parity twin of ``RoundEngine``)."""


class FastSlotEngine(_VectorizedKernel, SlotEngine):
    """Vectorized duty-cycle engine (parity twin of ``SlotEngine``)."""
