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

from repro.baselines.approx26 import LayeredPolicy, layer_color_plan
from repro.core.advance import Advance
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import has_conflict
from repro.network.topology import WSNTopology

__all__ = ["Approx17Policy"]


class Approx17Policy(LayeredPolicy):
    """Layer-synchronised BFS scheduling for the duty-cycle system."""

    name = "17-approx"
    systems = ("duty",)

    def _plan(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
        covered: frozenset[int],
        time: int,
    ) -> list[Advance]:
        assert self._tree is not None and schedule is not None
        # Parents of each layer with their colour priority (lower = earlier).
        layers = [
            {node: priority for priority, color in enumerate(classes) for node in sorted(color)}
            for classes in layer_color_plan(topology, self._tree)
        ]
        advances: list[Advance] = []
        layer = -1
        pending: dict[int, int] = {}  # the open layer's parents still to transmit
        while len(covered) < topology.num_nodes:
            while not pending and layer + 1 < len(layers):
                layer += 1
                pending = layers[layer]
            ready = [node for node in pending if node in covered]
            if not ready:
                break  # the plan ends short, which PlannedPolicy reports
            time = min(schedule.next_active_slot(node, time) for node in ready)
            # Transmit awake parents in colour-priority order, backing off
            # any parent that would conflict with an already admitted one.
            admitted: list[int] = []
            for node in sorted(
                (node for node in ready if schedule.is_active(node, time)),
                key=lambda node: (pending[node], node),
            ):
                if all(not has_conflict(topology, node, other, covered) for other in admitted):
                    admitted.append(node)
            for node in admitted:
                del pending[node]
            advance = Advance.from_color(
                topology,
                covered,
                frozenset(admitted),
                time,
                color_index=layer + 1,
                num_colors=len(layers),
                note=self.name,
            )
            advances.append(advance)
            covered |= advance.receivers
            time += 1
        return advances
