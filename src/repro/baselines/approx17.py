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

from repro.baselines.approx26 import LayeredPolicy, layer_color_masks
from repro.core.advance import Advance
from repro.dutycycle.schedule import WakeupSchedule
from repro.dutycycle.window import window_for
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
        window = window_for(schedule, topology)
        neighbors = topology.neighbor_masks
        full = topology.full_mask
        layers = layer_color_masks(topology, self._tree)
        advances: list[Advance] = []
        covered_mask = topology.mask_from_nodes(covered)
        layer = -1
        # The open layer's parents still to transmit, one mask per colour
        # class in priority order (lower = earlier).
        pending: list[int] = []
        while covered_mask != full:
            while not any(pending) and layer + 1 < len(layers):
                layer += 1
                pending = list(layers[layer])
            ready = 0
            for parents in pending:
                ready |= parents
            ready &= covered_mask
            if not ready:
                break  # the plan ends short, which PlannedPolicy reports
            time = window.next_awake(ready, time)
            awake = ready & window.awake_mask(time)
            # Transmit awake parents in colour-priority order, then by id,
            # backing off any parent that would conflict with an already
            # admitted one: one whose uncovered neighbours meet theirs.
            uncovered = full & ~covered_mask
            color = receivers = 0
            for priority, parents in enumerate(pending):
                rest = parents & awake
                while rest:
                    low = rest & -rest
                    rest ^= low
                    gain = neighbors[low.bit_length() - 1] & uncovered
                    if not gain & receivers:
                        color |= low
                        receivers |= gain
                pending[priority] = parents & ~color
            advances.append(
                Advance.from_masks(
                    topology,
                    color,
                    receivers,
                    time,
                    color_index=layer + 1,
                    num_colors=len(layers),
                    note=self.name,
                )
            )
            covered_mask |= receivers
            time += 1
        return advances
