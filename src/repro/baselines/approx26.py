"""The round-based hop-distance baseline (the "26-approximation" of [2]).

Chen, Qiao, Xu and Lee (INFOCOM 2007) schedule an interference-aware
broadcast along a BFS tree: for every BFS layer, a set of parents covering
the next layer is selected and greedily coloured so that transmitters of the
same colour do not conflict; the colour classes of a layer transmit in
consecutive rounds, and — crucially for the comparison the paper draws — the
next layer's transmissions only start once **every** colour class of the
current layer has transmitted (the per-layer synchronisation that blocks
interference-free relays further down the tree).

The resulting latency is ``Σ_ℓ λ_ℓ`` rounds, where ``λ_ℓ`` is the number of
colours layer ``ℓ`` needs; their analysis bounds it by a constant (26)
times the hop radius, which is the curve the paper plots as
"26-approximation" in Figure 3.
"""

from __future__ import annotations

from collections import Counter

from repro.baselines.bfs_tree import BroadcastTree, build_broadcast_tree
from repro.core.advance import Advance
from repro.core.coloring import greedy_masks
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import neighborhood_mask
from repro.network.topology import WSNTopology
from repro.sim.replay import PlannedPolicy

__all__ = ["Approx26Policy", "LayeredPolicy", "layer_color_plan", "layer_color_masks"]


def layer_color_plan(
    topology: WSNTopology, tree: BroadcastTree
) -> list[list[frozenset[int]]]:
    """Colour the parents of each BFS layer into sequential transmission groups.

    For layer ``ℓ`` the conflict relation is evaluated against the coverage
    available when the layer starts transmitting (all nodes at hop distance
    <= ℓ), which is conservative with respect to the actual coverage while
    the layer's colour classes run and therefore always interference-free.
    Parents are packed first-fit by :func:`~repro.core.coloring.greedy_masks`
    over their uncovered-neighbour masks, most assigned children first (the
    greedy "most receivers first" rule of the referenced construction).
    """
    return [
        [topology.nodes_from_mask(color) for color in classes]
        for classes in layer_color_masks(topology, tree)
    ]


def layer_color_masks(topology: WSNTopology, tree: BroadcastTree) -> list[list[int]]:
    """:func:`layer_color_plan` with each colour as a bitmask (bit ``i`` is
    ``topology.node_ids[i]``), the form the plans schedule from."""
    plan: list[list[int]] = []
    children = Counter(tree.parent_of.values())
    covered = 0
    for level, layer in enumerate(tree.layers):
        covered |= topology.mask_from_nodes(layer)
        uncovered = topology.full_mask & ~covered
        parents = sorted(tree.parents_per_layer[level], key=lambda u: (-children[u], u))
        candidates = [
            (1 << topology.index_of(u), topology.neighbor_mask(u) & uncovered)
            for u in parents
        ]
        plan.append([color for color, _ in greedy_masks(candidates)])
    return plan


class LayeredPolicy(PlannedPolicy):
    """A planned policy over the colour classes of a BFS tree's layers.

    :meth:`prepare` builds the tree (``parent_mode`` as in
    :func:`~repro.baselines.bfs_tree.build_broadcast_tree`); the subclass's
    plan runs :func:`layer_color_plan` layer by layer, never pipelining
    across layers.
    """

    def __init__(self, *, parent_mode: str = "cover") -> None:
        self._parent_mode = parent_mode
        self._tree: BroadcastTree | None = None

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
        super().prepare(topology, schedule, source)
        self._tree = build_broadcast_tree(topology, source, parent_mode=self._parent_mode)


class Approx26Policy(LayeredPolicy):
    """Layer-synchronised conflict-aware BFS scheduling (round-based system).

    The plan transmits the per-layer colour classes one per round, every
    class of a layer before the next layer starts: the baseline behaviour
    the paper improves on.
    """

    name = "26-approx"
    systems = ("sync",)

    @property
    def planned_rounds(self) -> int:
        """Total number of transmission rounds the current plan uses."""
        return len(self._times)

    def _plan(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
        covered: frozenset[int],
        time: int,
    ) -> list[Advance]:
        assert self._tree is not None
        # Flatten: the source's own transmission is the single colour class
        # of layer 0; every layer's classes run back-to-back.
        queue = [color for classes in layer_color_masks(topology, self._tree) for color in classes]
        full = topology.full_mask
        covered_mask = topology.mask_from_nodes(covered)
        advances: list[Advance] = []
        for index, color in enumerate(queue):
            if covered_mask == full:
                break
            receivers = neighborhood_mask(topology, color) & ~covered_mask
            advances.append(
                Advance.from_masks(
                    topology,
                    color,
                    receivers,
                    time + index,
                    color_index=index + 1,
                    num_colors=len(queue),
                    note=self.name,
                )
            )
            covered_mask |= receivers
        return advances
