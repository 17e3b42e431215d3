"""Vectorized broadcast engines (the ``engine="vectorized"`` backend).

:class:`FastRoundEngine` and :class:`FastSlotEngine` are drop-in
replacements for :class:`~repro.sim.engine.RoundEngine` and
:class:`~repro.sim.engine.SlotEngine`: same constructor and ``run``
signatures (including the :class:`~repro.sim.links.LinkModel` strategy,
so every backend × reliability combination runs through the same kernel),
same :class:`~repro.core.policies.SchedulingPolicy` protocol, same error
messages, and — by construction — *bit-identical*
:class:`~repro.sim.trace.BroadcastResult` traces, reliable and lossy alike
(the parity suites in ``tests/property`` and the benchmarks in
``benchmarks/test_engine_backends.py`` / ``benchmarks/test_lossy_engines.py``
enforce this).  What changes is how the engine-side work is carried out:

* coverage and receiver sets are boolean vectors over the
  :class:`~repro.network.bitset.BitsetTopology` view, so interference
  checking and advance validation are matrix slices instead of Python set
  loops;
* wake-up schedules are read through the shared wake-up index
  (:class:`~repro.dutycycle.window.ActivityWindow`, the lazily grown
  activity matrix the time counter's search also uses), so "when does the
  next frontier node wake up?" is a scan over per-slot awake masks;
* the default time limits (source eccentricity, max degree) come from the
  view's vectorized BFS instead of the Python queue BFS;
* for policies that declare themselves frontier-driven (OPT, G-OPT,
  E-model, flooding, largest-first — see
  :attr:`~repro.core.policies.SchedulingPolicy.frontier_driven`) the slot
  engine *skips* slots in which no awake covered node has an uncovered
  neighbour, because such policies promise to answer ``None`` there with
  no state change.  Policies that keep the fail-safe default (e.g. the
  layered 17-approximation, which may transmit a parent whose children
  were already covered) are offered every slot, exactly like the
  reference engine; the traces are identical either way.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import ActivityWindow, window_for
from repro.network.bitset import bitset_view
from repro.network.topology import WSNTopology
from repro.sim.engine import SimulationTimeout, check_multi_inputs
from repro.sim.links import LinkModel, ReliableLinks
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.utils.validation import require

__all__ = ["FastRoundEngine", "FastSlotEngine"]


def _next_frontier_slot(window: ActivityWindow, frontier: int, time: int, limit: int) -> int:
    """The first slot in ``[time, limit]`` with an awake frontier node, else ``limit + 1``."""
    next_slot = window.next_awake(frontier, time)
    return limit + 1 if next_slot is None or next_slot > limit else next_slot


class _FastEngineBase:
    """Shared vectorized bookkeeping of both engines."""

    def __init__(self, topology: WSNTopology, link_model: LinkModel | None = None) -> None:
        self.topology = topology
        self.link_model = ReliableLinks() if link_model is None else link_model
        self._view = bitset_view(topology)

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

    def _run(
        self,
        policy: SchedulingPolicy,
        source: int,
        start_time: int,
        limit: int,
        schedule: WakeupSchedule | None,
    ) -> BroadcastResult:
        """Materialize :meth:`_iter_run` into a full :class:`BroadcastResult`."""
        stepper = self._iter_run(policy, source, start_time, limit, schedule)
        advances: list[Advance] = []
        while True:
            try:
                advances.append(next(stepper))
            except StopIteration as done:
                covered, end_time = done.value
                break
        return BroadcastResult(
            policy_name=policy.name,
            source=source,
            start_time=start_time,
            end_time=max(end_time, start_time - 1),
            covered=covered,
            advances=tuple(advances),
            synchronous=schedule is None,
            cycle_rate=1 if schedule is None else schedule.rate,
        )

    def _iter_run(
        self,
        policy: SchedulingPolicy,
        source: int,
        start_time: int,
        limit: int,
        schedule: WakeupSchedule | None,
    ):
        """Generator core of the single-source kernel: yields each recorded
        advance the moment it is applied, and returns ``(covered, end_time)``
        when coverage completes (via ``StopIteration.value``).

        This is the streaming entry point (:mod:`repro.sim.streaming`): the
        engine holds no advance list, so a consumer that does not accumulate
        the yielded advances runs in memory independent of the trace length.
        :meth:`_run` materializes it; both paths execute the identical slot
        loop, so streamed and materialized traces are bit-identical.
        """
        require(source in self.topology, f"unknown source node {source}")
        require(start_time >= 1, "start_time is 1-based")
        view = self._view
        num_nodes = view.num_nodes
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        check_conflicts = getattr(policy, "interference_free", True)
        skip_idle = schedule is not None and getattr(policy, "frontier_driven", False)
        window = None if schedule is None else window_for(schedule, view)
        # Fast-forward hint (see SchedulingPolicy.next_decision_slot); the
        # base-class default always answers None (no promise).
        hint = policy.next_decision_slot

        covered: frozenset[int] = frozenset({source})
        covered_bool = np.zeros(num_nodes, dtype=bool)
        covered_bool[view.index_of(source)] = True
        covered_count = 1
        # Frontier = covered nodes with >= 1 uncovered neighbour, tracked
        # incrementally: the per-node count of uncovered neighbours only
        # decreases, by the adjacency columns of each advance's receivers.
        uncovered_degree = view.degrees.astype(np.int64) - view.hear_counts(
            np.asarray([view.index_of(source)], dtype=np.int64)
        )
        frontier: int | None = None

        time = start_time
        end_time = start_time - 1

        while covered_count != num_nodes:
            hinted = hint(time)
            if hinted is not None and hinted > time:
                time = hinted
            # When the policy explicitly promised a decision at this very
            # slot, offering it is the cheapest correct move; the frontier
            # scan is for policies that make no such promise.
            if skip_idle and hinted != time and time <= limit:
                assert window is not None
                if frontier is None:
                    frontier = view.mask_from_bool(covered_bool & (uncovered_degree > 0))
                time = _next_frontier_slot(window, frontier, time, limit)
            if time > limit:
                raise SimulationTimeout(
                    f"broadcast did not complete by time {limit} "
                    f"(covered {covered_count}/{num_nodes} nodes); the policy or the "
                    "wake-up schedule is not making progress"
                )
            state = BroadcastState.for_engine(self.topology, covered, time, schedule)
            advance = policy.select_advance(state)
            if advance is not None:
                tx_idx, receivers_bool, receivers_idx = self._check_advance(
                    advance,
                    covered,
                    covered_bool,
                    time,
                    window,
                    check_conflicts=check_conflicts,
                )
                if link.lossless:
                    recorded = advance
                    delivered = advance.receivers
                    delivered_bool = receivers_bool
                    delivered_idx = receivers_idx
                else:
                    delivered_bool = link.deliver_bool(
                        link_state, view, tx_idx, receivers_bool, covered_bool
                    )
                    delivered = view.nodes_from_bool(delivered_bool)
                    delivered_idx = np.flatnonzero(delivered_bool)
                    recorded = dataclasses.replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                if delivered:
                    covered = covered | delivered
                    covered_bool |= delivered_bool
                    covered_count += len(delivered)
                    if skip_idle:
                        uncovered_degree -= view.adjacency_u8[:, delivered_idx].sum(
                            axis=1, dtype=np.int64
                        )
                        frontier = None
                    end_time = time
                yield recorded
            time += 1

        return covered, end_time

    def _check_multi_inputs(
        self, policies: Sequence[SchedulingPolicy], sources: Sequence[int]
    ) -> None:
        check_multi_inputs(self.topology, policies, sources)

    def _run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        limit: int,
        schedule: WakeupSchedule | None,
    ) -> MultiBroadcastResult:
        """Vectorized twin of :meth:`repro.sim.engine._EngineBase._run_multi`.

        Same rotating priority order, same deferral predicate (evaluated on
        boolean vectors instead of bigint masks), same link-RNG consumption
        order — the traces are bit-identical to the reference kernel.  When
        every policy is frontier-driven, the duty-cycle path additionally
        skips slots in which no message has an awake frontier node (the
        union multi-frontier scan), which is trace-preserving because every
        policy promises ``None`` with no state change on such slots.

        Inputs were validated by the public ``run_multi`` entry point
        (which needs them checked before its default-limit computation).
        """
        require(start_time >= 1, "start_time is 1-based")
        view = self._view
        num_nodes = view.num_nodes
        k = len(sources)
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        check_conflicts = [
            getattr(policy, "interference_free", True) for policy in policies
        ]
        skip_idle = schedule is not None and all(
            getattr(policy, "frontier_driven", False) for policy in policies
        )
        window = None if schedule is None else window_for(schedule, view)

        covered: list[frozenset[int]] = [frozenset({s}) for s in sources]
        covered_bool = np.zeros((k, num_nodes), dtype=bool)
        covered_count = [1] * k
        uncovered_degree = np.empty((k, num_nodes), dtype=np.int64)
        for m, source in enumerate(sources):
            row = view.index_of(source)
            covered_bool[m, row] = True
            uncovered_degree[m] = view.degrees.astype(np.int64) - view.hear_counts(
                np.asarray([row], dtype=np.int64)
            )
        frontier: int | None = None

        advances: list[list[Advance]] = [[] for _ in range(k)]
        end_times = [start_time - 1] * k
        time = start_time

        while any(count != num_nodes for count in covered_count):
            if skip_idle and time <= limit:
                assert window is not None
                if frontier is None:
                    # Union multi-frontier: covered nodes of *some* message
                    # that still have uncovered neighbours for that message.
                    frontier = view.mask_from_bool(
                        (covered_bool & (uncovered_degree > 0)).any(axis=0)
                    )
                time = _next_frontier_slot(window, frontier, time, limit)
            if time > limit:
                pending = sum(1 for count in covered_count if count != num_nodes)
                raise SimulationTimeout(
                    f"multi-source broadcast did not complete by time {limit} "
                    f"({pending}/{k} messages still spreading); the policies, "
                    "the wake-up schedule or the slot contention is not making "
                    "progress"
                )
            busy = np.zeros(num_nodes, dtype=bool)
            heard = np.zeros(num_nodes, dtype=bool)
            rx = np.zeros(num_nodes, dtype=bool)
            offset = (time - start_time) % k
            for m in ((offset + j) % k for j in range(k)):
                if covered_count[m] == num_nodes:
                    continue
                policy = policies[m]
                state = BroadcastState.for_engine(
                    self.topology, covered[m], time, schedule
                )
                advance = policy.select_advance(state)
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
                advances[m].append(recorded)
                busy[tx_idx] = True
                busy |= receivers_bool
                heard |= cand_heard
                rx |= receivers_bool
            time += 1

        messages = tuple(
            BroadcastResult(
                policy_name=policies[i].name,
                source=sources[i],
                start_time=start_time,
                end_time=max(end_times[i], start_time - 1),
                covered=covered[i],
                advances=tuple(advances[i]),
                synchronous=schedule is None,
                cycle_rate=1 if schedule is None else schedule.rate,
            )
            for i in range(k)
        )
        return MultiBroadcastResult(
            sources=tuple(int(s) for s in sources),
            start_time=start_time,
            messages=messages,
            synchronous=schedule is None,
            cycle_rate=1 if schedule is None else schedule.rate,
        )


class FastRoundEngine(_FastEngineBase):
    """Vectorized round-based engine (parity twin of ``RoundEngine``)."""

    def run(
        self,
        policy: SchedulingPolicy,
        source: int,
        *,
        start_time: int = 1,
        max_rounds: int | None = None,
    ) -> BroadcastResult:
        """Simulate a broadcast; see :meth:`repro.sim.engine.RoundEngine.run`."""
        require(source in self.topology, f"unknown source node {source}")
        if max_rounds is None:
            max_rounds = self._default_max_rounds(source)
        limit = start_time + max_rounds
        return self._run(policy, source, start_time, limit, schedule=None)

    def _default_max_rounds(self, source: int) -> int:
        depth = max(self._view.eccentricity(source), 1)
        return int(
            (depth * max(self._view.max_degree(), 1) + depth + 8)
            * self.link_model.limit_stretch
        )

    def run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        *,
        start_time: int = 1,
        max_rounds: int | None = None,
    ) -> MultiBroadcastResult:
        """Multi-source twin; see :meth:`repro.sim.engine.RoundEngine.run_multi`."""
        self._check_multi_inputs(policies, sources)
        if max_rounds is None:
            max_rounds = max(
                self._default_max_rounds(source) for source in sources
            ) * max(len(sources), 1)
        limit = start_time + max_rounds
        return self._run_multi(policies, sources, start_time, limit, schedule=None)


class FastSlotEngine(_FastEngineBase):
    """Vectorized duty-cycle engine (parity twin of ``SlotEngine``)."""

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule,
        link_model: LinkModel | None = None,
    ) -> None:
        super().__init__(topology, link_model)
        if topology.node_ids != schedule.node_ids:
            missing = set(topology.node_ids) - set(schedule.node_ids)
            if missing:
                raise ValueError(
                    f"wake-up schedule missing nodes {sorted(missing)[:5]}..."
                    if len(missing) > 5
                    else f"wake-up schedule missing nodes {sorted(missing)}"
                )
        self.schedule = schedule

    def run(
        self,
        policy: SchedulingPolicy,
        source: int,
        *,
        start_time: int = 1,
        align_start: bool = False,
        max_slots: int | None = None,
    ) -> BroadcastResult:
        """Simulate a duty-cycle broadcast; see :meth:`repro.sim.engine.SlotEngine.run`."""
        require(source in self.topology, f"unknown source node {source}")
        if align_start:
            start_time = self.schedule.next_active_slot(source, start_time)
        if max_slots is None:
            max_slots = self._default_max_slots(source)
        limit = start_time + max_slots
        return self._run(policy, source, start_time, limit, schedule=self.schedule)

    def _default_max_slots(self, source: int) -> int:
        depth = max(self._view.eccentricity(source), 1)
        # max_rate mirrors SlotEngine.run so both backends cap at the
        # same slot even under heterogeneous duty cycling.
        worst_per_layer = 2 * self.schedule.max_rate * (
            max(self._view.max_degree(), 1) + 2
        )
        return int(
            (depth * worst_per_layer + 4 * self.schedule.max_rate)
            * self.link_model.limit_stretch
        )

    def run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        *,
        start_time: int = 1,
        align_start: bool = False,
        max_slots: int | None = None,
    ) -> MultiBroadcastResult:
        """Multi-source twin; see :meth:`repro.sim.engine.SlotEngine.run_multi`."""
        self._check_multi_inputs(policies, sources)
        if align_start:
            start_time = min(
                self.schedule.next_active_slot(source, start_time)
                for source in sources
            )
        if max_slots is None:
            max_slots = max(
                self._default_max_slots(source) for source in sources
            ) * max(len(sources), 1)
        limit = start_time + max_slots
        return self._run_multi(
            policies, sources, start_time, limit, schedule=self.schedule
        )
