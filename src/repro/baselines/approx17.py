"""The duty-cycle-aware hop-distance baseline (the "17-approximation" of [12]).

Jiao et al. (ICDCS 2010) schedule broadcast transmissions layer by layer
along a BFS tree in a duty-cycled network.  Translated to this paper's
network model (senders transmit only at their wake-up slots, receivers are
always listening), the baseline behaves as follows:

* the parents of BFS layer ``ℓ`` may only start transmitting once **every**
  parent of layer ``ℓ - 1`` has transmitted (per-layer synchronisation, no
  pipelining across layers);
* within a layer, each parent transmits at its first wake-up slot after the
  layer opened, except that two parents sharing an uncovered neighbour never
  transmit in the same slot — the lower-priority one backs off to its next
  wake-up slot (the "wait of k slots, 1 <= k <= 2r, to re-initiate" the
  paper describes).

The end-to-end latency therefore accumulates roughly one cycle-waiting time
per colour per layer, which is the ``17 k d`` growth the paper quotes for
this baseline and plots in Figures 4-7.
"""

from __future__ import annotations

from repro.baselines.approx26 import layer_color_plan
from repro.baselines.bfs_tree import BroadcastTree, build_broadcast_tree
from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import has_conflict
from repro.network.topology import WSNTopology

__all__ = ["Approx17Policy"]


class Approx17Policy(SchedulingPolicy):
    """Layer-synchronised BFS scheduling for the duty-cycle system."""

    name = "17-approx"

    #: The plan is fixed at ``prepare`` time and assumes every delivery
    #: succeeds — under lossy links it live-locks (exactly the §VI critique
    #: of schedulers relying on healthy links), so the engines reject it.
    loss_tolerant = False

    def __init__(self, *, parent_mode: str = "cover") -> None:
        self._parent_mode = parent_mode
        self._topology: WSNTopology | None = None
        self._schedule: WakeupSchedule | None = None
        self._tree: BroadcastTree | None = None
        #: Parents of each layer with their colour priority (lower = earlier).
        self._layer_parents: list[list[tuple[int, int]]] = []
        self._current_layer = 0
        self._pending: dict[int, int] = {}

    @property
    def tree(self) -> BroadcastTree | None:
        """The BFS broadcast tree of the current plan (``None`` until prepared)."""
        return self._tree

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        if schedule is None:
            raise ValueError(
                "Approx17Policy schedules the duty-cycle system and needs a "
                "WakeupSchedule; the solver registry maps each system to its "
                "tiers (repro.solvers.SOLVER_TIERS, --list-solvers): the "
                "round-based baseline is the '26-approx' tier"
            )
        self._topology = topology
        self._schedule = schedule
        self._tree = build_broadcast_tree(topology, source, parent_mode=self._parent_mode)
        plan = layer_color_plan(topology, self._tree)
        self._layer_parents = []
        for layer_classes in plan:
            parents: list[tuple[int, int]] = []
            for priority, color in enumerate(layer_classes):
                parents.extend((node, priority) for node in sorted(color))
            self._layer_parents.append(parents)
        self._current_layer = 0
        self._pending = dict(self._layer_parents[0]) if self._layer_parents else {}

    def _open_next_layer(self) -> None:
        """Advance to the next layer whose parents still have to transmit."""
        while not self._pending and self._current_layer + 1 < len(self._layer_parents):
            self._current_layer += 1
            self._pending = dict(self._layer_parents[self._current_layer])

    def next_decision_slot(self, time: int) -> int | None:
        """Earliest wake-up slot of any pending parent (a valid promise).

        No pending parent is awake strictly before that slot, so
        :meth:`select_advance` would answer ``None`` there; the hint may be
        *early* (the first-awake parent might not be covered yet), which is
        safe — the engine simply offers that slot and gets ``None``.  No
        promise is made before :meth:`prepare` or once the plan is
        exhausted, so the unprepared/exhausted errors fire at the exact
        slot the unhinted engines would surface them.
        """
        if self._tree is None or self._schedule is None:
            return None
        self._open_next_layer()
        if not self._pending:
            return None
        return min(
            self._schedule.next_active_slot(node, time) for node in self._pending
        )

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        if self._tree is None or self._topology is not state.topology:
            raise RuntimeError(
                "Approx17Policy.prepare(topology, schedule, source) must run before use"
            )
        assert self._schedule is not None
        self._open_next_layer()
        if not self._pending:
            raise RuntimeError(
                "plan exhausted before full coverage; the BFS plan is inconsistent"
            )

        awake = [
            node
            for node in self._pending
            if node in state.covered and self._schedule.is_active(node, state.time)
        ]
        if not awake:
            return None

        # Transmit awake parents in colour-priority order, backing off any
        # parent that would conflict with an already admitted transmitter.
        awake.sort(key=lambda node: (self._pending[node], node))
        admitted: list[int] = []
        for node in awake:
            if all(
                not has_conflict(state.topology, node, other, state.covered)
                for other in admitted
            ):
                admitted.append(node)
        if not admitted:  # pragma: no cover - at least one node is always admitted
            return None
        for node in admitted:
            self._pending.pop(node, None)

        return Advance.from_color(
            state.topology,
            state.covered,
            frozenset(admitted),
            state.time,
            color_index=self._current_layer + 1,
            num_colors=len(self._layer_parents),
            note=self.name,
        )
