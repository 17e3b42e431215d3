"""Scheduling policies (Algorithm 3): OPT, G-OPT and the E-model.

A *policy* answers one question: given the current broadcast state
``(W, t)``, which colour (if any) should relay now?  The simulators in
:mod:`repro.sim` drive a policy round-by-round (or slot-by-slot) and apply
the advances it returns; the baselines of :mod:`repro.baselines` implement
the same interface, so every scheduler in the paper's evaluation is
exercised through identical machinery.

* :class:`OptPolicy` — the ultimate target: candidate colours are *all*
  admissible colours of Eq. (1) and each is evaluated with the recursive
  time counter ``M`` (Eq. 5 synchronous / Eq. 6 duty-cycle).
* :class:`GreedyOptPolicy` — candidate colours restricted to the greedy
  classes of Algorithm 1, still evaluated with ``M`` (Eq. 7 / Eq. 8).
* :class:`EModelPolicy` — the practical protocol: greedy classes scored by
  the proactive 4-tuple ``E`` (Eq. 10); no recursive search at run time.

OPT and G-OPT decide over the colours their time counter's recursion uses,
read through its per-broadcast state memo (``TimeCounter.color_masks_at``).
The E-model (and the largest-first baseline) colour each decision's awake
pool afresh with :func:`greedy_decision_classes`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generic, Literal, TypeVar

from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import ColorMasks, ColorScheme
from repro.core.estimation import EdgeEstimate, build_edge_estimate
from repro.core.time_counter import SearchConfig, TimeCounter
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
from repro.network.topology import WSNTopology

__all__ = [
    "SchedulingPolicy",
    "OptPolicy",
    "GreedyOptPolicy",
    "EModelPolicy",
    "greedy_decision_classes",
]

_Bound = TypeVar("_Bound")

#: The greedy scheme of every decision-time colouring; built once, since a
#: scheme is checked when it is built.
_GREEDY = ColorScheme()


def greedy_decision_classes(state: BroadcastState) -> list[ColorMasks]:
    """The greedy ``(colour, receivers)`` masks of ``state`` over its awake pool.

    The pool is the covered nodes awake at ``state.time``, read from the
    shared :func:`~repro.dutycycle.window.window_for` masks (all covered
    nodes in the synchronous system).  Uncached: each call colours the
    pool afresh with :meth:`~repro.core.coloring.ColorScheme.color_masks`.
    """
    topology = state.topology
    covered = pool = state.covered_mask
    if state.schedule is not None:
        window = window_for(state.schedule, topology)
        pool &= window.awake_mask(state.time)
    return _GREEDY.color_masks(topology, covered, pool)


class SchedulingPolicy(ABC):
    """Interface shared by every scheduler in the evaluation.

    Lifecycle: :func:`repro.sim.broadcast.run_broadcast` calls
    :meth:`prepare` once per broadcast with the topology, schedule and
    source, then :meth:`select_advance` at each round/slot it offers.
    Frontier policies that precompute per-binding structures (OPT, G-OPT,
    the E-model and its localized variant) also bind lazily: a state whose
    topology or schedule is not the bound one re-prepares them, so they can
    be driven directly.  Planned policies (the 17/26-approximations, the
    exact tier; :class:`~repro.sim.replay.PlannedPolicy`) bind in
    :meth:`prepare`, build their plan at the first slot they are asked
    about and replay it; they refuse a system outside :attr:`systems` in
    :meth:`prepare`, and a state whose topology or schedule is not the
    bound one with :class:`RuntimeError`.
    """

    #: Human-readable name used in traces, metrics and experiment reports.
    name: str = "policy"

    #: Whether the policy promises interference-free advances.  The engines
    #: reject conflicting transmitter sets for such policies (catching bugs
    #: early); the idealised flooding reference sets this to False because it
    #: deliberately ignores interference (it is a latency floor, not a real
    #: schedule).
    interference_free: bool = True

    #: The system models the policy schedules for: ``"sync"`` (round-based)
    #: and ``"duty"`` (duty-cycle).  The solver registry reads it too.
    systems: tuple[str, ...] = ("sync", "duty")

    #: Whether the policy keeps working when deliveries may fail.  Frontier
    #: schedulers re-plan from the *actual* covered set every round/slot, so
    #: a node whose delivery failed simply stays in the frontier and is
    #: re-served later — the paper's §VI graceful-degradation argument.
    #: *Planned* policies (the layered 17/26-approximations, the exact
    #: tier) replay a fixed schedule assuming reliable delivery and either
    #: live-lock or schedule senders that never got the message once links
    #: drop packets; they set this to False and ``run_broadcast`` rejects
    #: them for lossy link models instead of timing out minutes later.
    loss_tolerant: bool = True

    #: Whether the policy is *frontier-driven*: it returns ``None`` (with no
    #: state change) whenever no covered node with an uncovered neighbour is
    #: awake at the current slot.  Declaring this lets the vectorized slot
    #: engine jump over such idle slots without invoking the policy, which
    #: is trace-preserving for policies that keep the promise.  The default
    #: is the fail-safe False — every slot is offered — because a subclass
    #: may legally emit advances with no uncovered receivers (the layered
    #: 17-approximation does exactly that when another parent already
    #: covered a node's children) or mutate per-call state.  The frontier
    #: schedulers of this package (OPT, G-OPT, E-model, flooding,
    #: largest-first) opt in explicitly.
    frontier_driven: bool = False

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        """Per-broadcast initialisation hook (default: nothing to do)."""

    def next_decision_slot(self, time: int) -> int | None:
        """Earliest slot >= ``time`` at which the policy might transmit.

        A fast-forward hint honoured by every engine backend: returning
        ``s`` is a promise that :meth:`select_advance` answers ``None`` for
        every slot in ``[time, s)``, so an engine may jump straight to ``s``
        without offering the intermediate slots.  Returning ``None``
        (the default) makes no promise — every slot is offered as usual.
        Policies that know their transmission times (trace replays and
        planned policies) override this.
        """
        return None

    @abstractmethod
    def select_advance(self, state: BroadcastState) -> Advance | None:
        """Return the advance to apply at ``state.time`` (or ``None`` to idle).

        Returning ``None`` means no relay transmits this round/slot — either
        coverage is complete, or (duty-cycle system) no frontier node is
        awake.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class _BoundPolicy(SchedulingPolicy, Generic[_Bound]):
    """A frontier policy that decides over one structure per binding.

    :meth:`prepare` builds the structure for ``(topology, schedule)`` with
    :meth:`_build`, or hands it to :meth:`_reset` when the binding is
    unchanged; :meth:`select_advance` re-prepares whenever the state's
    topology or schedule is not the bound one, then decides in
    :meth:`_select`.
    """

    #: Colours come from the (awake) frontier only, so an idle frontier slot
    #: always yields ``None`` with no state change.
    frontier_driven = True

    _topology: WSNTopology | None = None
    _schedule: WakeupSchedule | None = None
    _bound: _Bound | None = None

    @abstractmethod
    def _build(self, topology: WSNTopology, schedule: WakeupSchedule | None) -> _Bound:
        """The structure decisions over ``(topology, schedule)`` read."""

    def _reset(self, bound: _Bound) -> None:
        """Ready ``bound`` for another broadcast (default: reuse it as is)."""

    @abstractmethod
    def _select(self, state: BroadcastState, bound: _Bound) -> Advance | None:
        """The advance at ``state`` (not complete), decided over ``bound``."""

    def _is_bound_to(self, topology: WSNTopology, schedule: WakeupSchedule | None) -> bool:
        return (
            self._bound is not None
            and self._topology is topology
            and self._schedule is schedule
        )

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        if self._is_bound_to(topology, schedule):
            self._reset(self._bound)
        else:
            self._topology, self._schedule = topology, schedule
            self._bound = self._build(topology, schedule)

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        if not self._is_bound_to(state.topology, state.schedule):
            # Lazy binding for callers that drive the policy directly: the
            # state's schedule sets the decision's awake pool.
            self.prepare(state.topology, state.schedule, source=-1)
        return self._select(state, self._bound)


class _TimeCounterPolicy(_BoundPolicy[TimeCounter]):
    """Shared implementation of the two ``M``-driven schedulers.

    The bound structure is a :class:`TimeCounter` over the policy's colour
    scheme, the provider of the decision and of the recursive evaluation of
    ``M`` alike; preparing the same binding again clears its cache.
    """

    def __init__(self, scheme: ColorScheme, search: SearchConfig | None) -> None:
        self._scheme = scheme
        self._search = search or SearchConfig()

    @property
    def search_config(self) -> SearchConfig:
        """The search configuration used to evaluate ``M``."""
        return self._search

    @property
    def counter(self) -> TimeCounter | None:
        """The underlying time counter (``None`` until prepared)."""
        return self._bound

    def _build(self, topology: WSNTopology, schedule: WakeupSchedule | None) -> TimeCounter:
        return TimeCounter(
            topology,
            schedule=schedule,
            color_scheme=self._scheme,
            config=self._search,
        )

    def _reset(self, counter: TimeCounter) -> None:
        counter.clear_cache()

    def _select(self, state: BroadcastState, counter: TimeCounter) -> Advance | None:
        # The decision colours the counter's own provider through its state
        # memo, which serves the states its last search already coloured.
        covered = state.covered_mask
        index = counter.decide(covered, state.time)
        if index is None:
            return None
        pairs = counter.color_masks_at(covered, state.time)
        color, receivers = pairs[index]
        return Advance.from_masks(
            state.topology,
            color,
            receivers,
            state.time,
            color_index=index + 1,
            num_colors=len(pairs),
            note=self.name,
        )


class OptPolicy(_TimeCounterPolicy):
    """The OPT target (Eq. 1 + Eq. 5/6): any admissible colour, ranked by ``M``.

    Parameters
    ----------
    search:
        Search configuration for the ``M`` evaluation; exact search is the
        default and appropriate for the worked examples and tests, beam
        search (``SearchConfig(mode="beam")``) for the 50-300 node sweeps.
    max_color_classes:
        Cap on the number of admissible colours enumerated per decision
        (see docs/design.md, "Colour-class cap"; ``None`` = exhaustive).
    """

    name = "OPT"

    def __init__(
        self, *, search: SearchConfig | None = None, max_color_classes: int | None = 64
    ) -> None:
        super().__init__(ColorScheme(mode="exhaustive", max_classes=max_color_classes), search)


class GreedyOptPolicy(_TimeCounterPolicy):
    """The G-OPT target (Eq. 2/3 + Eq. 7/8): greedy colours ranked by ``M``."""

    name = "G-OPT"

    def __init__(self, *, search: SearchConfig | None = None) -> None:
        super().__init__(ColorScheme(), search)


class EModelPolicy(_BoundPolicy[EdgeEstimate]):
    """The practical E-model scheduler (Algorithm 3, item 3; Eq. 10).

    Greedy colour classes are computed for the current frontier and the
    class containing the node with the largest relevant edge estimate is
    selected.  Ties are broken in favour of the colour with more receivers
    (the greedy scheme's own preference), then the lower colour index.

    Parameters
    ----------
    weight:
        ``"expected"`` (default) or ``"unit"`` — the Eq. (11) weight used in
        the duty-cycle system; ignored in the synchronous system.
    """

    name = "E-model"

    def __init__(self, *, weight: Literal["expected", "unit"] = "expected") -> None:
        self._weight = weight

    @property
    def estimate(self) -> EdgeEstimate | None:
        """The proactively constructed 4-tuples (``None`` until prepared)."""
        return self._bound

    def _build(self, topology: WSNTopology, schedule: WakeupSchedule | None) -> EdgeEstimate:
        return build_edge_estimate(topology, schedule, weight=self._weight)

    def _select(self, state: BroadcastState, estimate: EdgeEstimate) -> Advance | None:
        pairs = greedy_decision_classes(state)
        if not pairs:
            return None

        # Highest score, then more receivers, then the lower colour index;
        # a lone colour is taken unscored.
        topology = state.topology
        index = 0
        if len(pairs) > 1:
            covered_mask = state.covered_mask
            _, _, negated_index = max(
                (
                    estimate.color_score(topology, topology.nodes_from_mask(color), covered_mask),
                    receivers.bit_count(),
                    -k,
                )
                for k, (color, receivers) in enumerate(pairs)
            )
            index = -negated_index
        color, receivers = pairs[index]
        return Advance.from_masks(
            topology,
            color,
            receivers,
            state.time,
            color_index=index + 1,
            num_colors=len(pairs),
            note=self.name,
        )
