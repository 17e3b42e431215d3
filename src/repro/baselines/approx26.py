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

from repro.baselines.bfs_tree import BroadcastTree, build_broadcast_tree
from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import greedy_masks
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology

__all__ = ["Approx26Policy", "layer_color_plan"]


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
    plan: list[list[frozenset[int]]] = []
    covered = 0
    for level, layer in enumerate(tree.layers):
        covered |= topology.mask_from_nodes(layer)
        uncovered = topology.full_mask & ~covered
        parents = sorted(
            tree.parents_per_layer[level], key=lambda u: (-len(tree.children_of(u)), u)
        )
        candidates = [
            (1 << topology.index_of(u), topology.neighbor_mask(u) & uncovered)
            for u in parents
        ]
        plan.append([topology.nodes_from_mask(color) for color, _ in greedy_masks(candidates)])
    return plan


class Approx26Policy(SchedulingPolicy):
    """Layer-synchronised conflict-aware BFS scheduling (round-based system).

    The policy is *planned*: :meth:`prepare` builds the BFS tree and the
    per-layer colour classes, and :meth:`select_advance` simply replays the
    plan one colour class per round.  The plan never pipelines across
    layers, reproducing the baseline behaviour the paper improves on.
    """

    name = "26-approx"

    #: The replayed plan assumes every delivery succeeds; over lossy links
    #: it would schedule senders that never received the message (the §VI
    #: critique of schedulers relying on healthy links), so the engines
    #: reject it.
    loss_tolerant = False

    def __init__(self, *, parent_mode: str = "cover") -> None:
        self._parent_mode = parent_mode
        self._topology: WSNTopology | None = None
        self._tree: BroadcastTree | None = None
        self._queue: list[frozenset[int]] = []
        self._cursor = 0

    @property
    def tree(self) -> BroadcastTree | None:
        """The BFS broadcast tree of the current plan (``None`` until prepared)."""
        return self._tree

    @property
    def planned_rounds(self) -> int:
        """Total number of transmission rounds the current plan uses."""
        return len(self._queue)

    def prepare(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None,
        source: int,
    ) -> None:
        if schedule is not None:
            raise ValueError(
                "Approx26Policy schedules the round-based synchronous system; "
                "the solver registry maps each system to its tiers "
                "(repro.solvers.SOLVER_TIERS, --list-solvers): the duty-cycle "
                "baseline is the '17-approx' tier"
            )
        self._topology = topology
        self._tree = build_broadcast_tree(topology, source, parent_mode=self._parent_mode)
        plan = layer_color_plan(topology, self._tree)
        # Flatten: the source's own transmission is the single colour class
        # of layer 0; every layer's classes run back-to-back before the next
        # layer starts.
        self._queue = [color for layer_classes in plan for color in layer_classes]
        self._cursor = 0

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        if self._tree is None or self._topology is not state.topology:
            raise RuntimeError(
                "Approx26Policy.prepare(topology, None, source) must run before use"
            )
        if self._cursor >= len(self._queue):
            raise RuntimeError(
                "plan exhausted before full coverage; the BFS plan is inconsistent"
            )
        color = self._queue[self._cursor]
        self._cursor += 1
        return Advance.from_color(
            state.topology,
            state.covered,
            color,
            state.time,
            color_index=self._cursor,
            num_colors=len(self._queue),
            note=self.name,
        )
