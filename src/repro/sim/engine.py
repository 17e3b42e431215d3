"""Round-based and slot-based broadcast engines (the set-based reference kernel).

The engines own the simulation loop; every scheduling decision is delegated
to a :class:`repro.core.policies.SchedulingPolicy`, and every *delivery* to
a :class:`repro.sim.links.LinkModel` (reliable by default, lossy for the
§VI robustness experiments).  Both engines enforce the paper's network
model at the boundary:

* a node may only relay if it already holds the message;
* (slot engine) a node may only relay in a slot contained in its wake-up
  schedule ``T(u)``;
* the transmitters of a single round/slot must be mutually interference-free
  with respect to the nodes that still need the message — a policy
  returning a conflicting set is a bug and the engine fails loudly instead
  of silently simulating an invalid schedule;
* the nodes *intended* by an advance are exactly the uncovered neighbours
  of its transmitters; the link model then decides which of them actually
  receive the message (all of them, for :class:`~repro.sim.links.ReliableLinks`).

Every run is a *multi-source* run: ``k`` concurrent messages share the
timeline (and, in the slot engine, the wake-up schedule), and a
single-source ``run`` is the ``k = 1`` case.  So each backend has one
broadcast loop, the generator ``_steps``; :class:`_EngineBase` is the
front every backend shares (input checks, default limits, start
alignment, result assembly), and the vectorized backend of
:mod:`repro.sim.fast_engine` subclasses these engines to replace only the
kernel.  Per slot the kernel

* jumps to the earliest ``next_decision_slot`` over the messages still
  spreading, provided every one of them promised a slot (``None`` makes
  no promise), so a ``k = 1`` run honours its policy's hint exactly;
* offers the messages in a rotating priority order (so no message is
  structurally favoured), each message with its own covered set and its
  own policy instance;
* *defers* an advance — not transmitted, retried at a later slot — when it
  would cross-interfere with an advance already accepted this slot:

  - a node may serve at most one message per slot (transmitter or intended
    receiver of two messages → the later message waits);
  - an intended receiver of one message must not be in range of another
    accepted message's transmitter (the collision would destroy both), in
    either acceptance order.

Deferral relies on the policies re-planning from their actual covered set
every slot, which is exactly the :attr:`SchedulingPolicy.loss_tolerant`
contract; ``run_broadcast`` rejects planned baselines for ``k > 1``.  With
``k = 1`` nothing is ever deferred, and the contention bookkeeping is
skipped altogether.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import conflicting_pairs, receivers_of
from repro.network.topology import WSNTopology
from repro.sim.links import LinkModel, ReliableLinks
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.utils.validation import require

__all__ = ["SimulationTimeout", "RoundEngine", "SlotEngine"]

#: A kernel: yields ``(message, advance)``, returns covered sets and end times.
Steps = Iterator[tuple[int, Advance]]


class SimulationTimeout(RuntimeError):
    """The broadcast did not complete within the engine's time limit."""


def node_id(value: object) -> int:
    """``value`` as a node id: any integer, NumPy's included, never a float."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"a source must be an integer node id, got {value!r}"
        ) from None


def promised_slot(
    hints: Sequence[Callable[[int], int | None]], live: Sequence[int], time: int
) -> int | None:
    """The earliest ``next_decision_slot`` over the ``live`` messages.

    ``None`` unless every live message promised a slot: one message that
    makes no promise may act at ``time``, so the engine must stay there.
    """
    promised = None
    for message in live:
        slot = hints[message](time)
        if slot is None:
            return None
        if promised is None or slot < promised:
            promised = slot
    return promised


def timeout(limit: int, counts: Sequence[int], num_nodes: int) -> SimulationTimeout:
    """The one timeout error, naming each unfinished message's coverage."""
    spreading = ", ".join(
        f"{count}/{num_nodes}" for count in counts if count != num_nodes
    )
    return SimulationTimeout(
        f"broadcast did not complete by time {limit} (covered {spreading} "
        "nodes); the policies, the wake-up schedule or the slot contention "
        "is not making progress"
    )


class _EngineBase:
    """The engine front shared by every backend.

    Checks the inputs, aligns the start, derives the default limit and
    assembles the results.  The set-based reference kernel ``_steps`` and
    its ``_check_advance`` live here too; a backend overrides ``_steps``.
    """

    #: The duty-cycle system's wake-up schedule; ``None`` is the
    #: round-based system.
    schedule: WakeupSchedule | None = None

    def __init__(self, topology: WSNTopology, link_model: LinkModel | None = None) -> None:
        self.topology = topology
        self.link_model = ReliableLinks() if link_model is None else link_model

    def _open(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        align_start: bool,
        max_time: int | None,
    ) -> tuple[int, Steps]:
        """Check, align and bound a run; return ``(start_time, kernel)``.

        The kernel generator runs nothing before its first ``next``, so a
        caller may still ``prepare`` the policies in between.  ``max_time``
        defaults to the worst single-source bound over the sources,
        stretched by the message count (slot contention can serialise the
        wavefronts in the worst case).
        """
        require(len(sources) >= 1, "a multi-source broadcast needs >= 1 source")
        require(
            len(set(sources)) == len(sources),
            f"duplicate sources: {sorted(sources)}",
        )
        for source in sources:
            require(source in self.topology, f"unknown source node {source}")
        require(
            len(policies) == len(sources),
            f"need one policy per message: {len(policies)} policies for "
            f"{len(sources)} sources",
        )
        if align_start and self.schedule is not None:
            start_time = min(
                self.schedule.next_active_slot(source, start_time)
                for source in sources
            )
        require(start_time >= 1, "start_time is 1-based")
        if max_time is None:
            max_time = max(
                self._default_max_time(source) for source in sources
            ) * len(sources)
        return start_time, self._steps(
            policies, sources, start_time, start_time + max_time
        )

    def _collect(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        steps: Steps,
    ) -> MultiBroadcastResult:
        """Drain a kernel into one trace per message."""
        advances: list[list[Advance]] = [[] for _ in sources]
        while True:
            try:
                message, advance = next(steps)
            except StopIteration as done:
                covered, end_times = done.value
                break
            advances[message].append(advance)
        synchronous = self.schedule is None
        cycle_rate = 1 if synchronous else self.schedule.rate
        return MultiBroadcastResult(
            sources=tuple(sources),
            start_time=start_time,
            messages=tuple(
                BroadcastResult(
                    policy_name=policies[m].name,
                    source=sources[m],
                    start_time=start_time,
                    end_time=end_times[m],
                    covered=covered[m],
                    advances=tuple(advances[m]),
                    synchronous=synchronous,
                    cycle_rate=cycle_rate,
                )
                for m in range(len(sources))
            ),
            synchronous=synchronous,
            cycle_rate=cycle_rate,
        )

    def run(
        self,
        policy: SchedulingPolicy,
        source: int,
        *,
        start_time: int = 1,
        align_start: bool = False,
        max_time: int | None = None,
    ) -> BroadcastResult:
        """Simulate one broadcast and return its trace (the ``k = 1`` run).

        ``align_start=True`` moves a duty-cycle start to the source's first
        wake-up slot at or after ``start_time`` (``t_s ∈ T(s)`` as in the
        paper's examples).  ``max_time`` defaults to a generous bound derived
        from the baselines' worst case.  The policy is not prepared here;
        :func:`~repro.sim.broadcast.run_broadcast` is the front that does.
        """
        sources = (node_id(source),)
        start_time, steps = self._open(
            [policy], sources, start_time, align_start, max_time
        )
        return self._collect([policy], sources, start_time, steps).messages[0]

    def _check_advance(
        self,
        advance: Advance,
        covered: frozenset[int],
        time: int,
        *,
        check_conflicts: bool = True,
    ) -> None:
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
        if self.schedule is not None:
            asleep = [u for u in advance.color if not self.schedule.is_active(u, time)]
            if asleep:
                raise ValueError(
                    f"policy scheduled sleeping transmitters at slot {time}: {sorted(asleep)}"
                )
        if check_conflicts:
            conflicts = conflicting_pairs(self.topology, advance.color, covered)
            if conflicts:
                raise ValueError(
                    f"policy scheduled conflicting transmitters at time {time}: {conflicts}"
                )
        expected = receivers_of(self.topology, advance.color, covered)
        if expected != advance.receivers:
            raise ValueError(
                "advance.receivers does not match the uncovered neighbours of its "
                f"transmitters at time {time}"
            )

    def _steps(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        limit: int,
    ) -> Steps:
        """The broadcast loop: yield each recorded advance as it is applied.

        Returns the covered sets and end times per message.  The
        contention masks are bigints: nodes engaged this slot (transmitting
        or intended to receive some accepted message), nodes in range of
        an accepted transmitter, and the accepted intended receivers.
        """
        topology = self.topology
        schedule = self.schedule
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        full = topology.node_set
        k = len(sources)
        hints = [policy.next_decision_slot for policy in policies]
        check_conflicts = [
            getattr(policy, "interference_free", True) for policy in policies
        ]
        # Offer order per slot: message priority rotates by one each slot.
        orders = [[(o + j) % k for j in range(k)] for o in range(k)]
        covered = [frozenset({source}) for source in sources]
        covered_masks = [topology.mask_from_nodes(c) for c in covered]
        end_times = [start_time - 1] * k
        live = [m for m in range(k) if covered[m] != full]
        time = start_time

        while live:
            # The hint promises select_advance answers None on the skipped
            # slots, so jumping (before the limit check) keeps the trace.
            hinted = promised_slot(hints, live, time)
            if hinted is not None and hinted > time:
                time = hinted
            if time > limit:
                raise timeout(limit, [len(c) for c in covered], len(full))
            busy_mask = None
            for position, m in enumerate(orders[(time - start_time) % k]):
                if covered[m] == full:
                    continue
                state = BroadcastState.for_engine(
                    topology, covered[m], time, schedule, covered_masks[m]
                )
                advance = policies[m].select_advance(state)
                if advance is None:
                    continue
                self._check_advance(
                    advance, covered[m], time, check_conflicts=check_conflicts[m]
                )
                if busy_mask is not None or position + 1 < k:
                    color_mask = topology.mask_from_nodes(advance.color)
                    recv_mask = topology.mask_from_nodes(advance.receivers)
                    cand_heard = 0
                    for transmitter in advance.color:
                        cand_heard |= topology.neighbor_mask(transmitter)
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
                else:
                    delivered = link.deliver(link_state, topology, advance, covered[m])
                    recorded = replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                if delivered:
                    covered[m] = covered[m] | delivered
                    covered_masks[m] |= topology.mask_from_nodes(delivered)
                    end_times[m] = time
                    if covered[m] == full:
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


class RoundEngine(_EngineBase):
    """The round-based synchronous system: every node may relay every round."""

    def _default_max_time(self, source: int) -> int:
        depth = max(self.topology.eccentricity(source), 1)
        return int(
            (depth * max(self.topology.max_degree(), 1) + depth + 8)
            * self.link_model.limit_stretch
        )


class SlotEngine(_EngineBase):
    """The asynchronous duty-cycle system: relays only at wake-up slots."""

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

    def _default_max_time(self, source: int) -> int:
        depth = max(self.topology.eccentricity(source), 1)
        # max_rate, not rate: with heterogeneous duty cycling the cap
        # must cover the sleepiest node's cycle length.
        worst_per_layer = 2 * self.schedule.max_rate * (
            max(self.topology.max_degree(), 1) + 2
        )
        return int(
            (depth * worst_per_layer + 4 * self.schedule.max_rate)
            * self.link_model.limit_stretch
        )
