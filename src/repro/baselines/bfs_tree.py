"""Breadth-first broadcast trees, the substrate of the hop-distance baselines.

Both baselines ([2]'s 26-approximation and [12]'s duty-cycle-aware
17-approximation) are built on the same skeleton: a BFS layering of the
network rooted at the source, a per-layer set of *parents* (transmitters
chosen from layer ``ℓ`` to cover layer ``ℓ + 1``) and a colouring of those
parents that serialises conflicting transmissions.  This module provides the
layering and the greedy parent selection (a classic greedy set cover, which
is how the referenced constructions pick forwarders from a dominating set).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.topology import WSNTopology

__all__ = ["BroadcastTree", "build_broadcast_tree", "greedy_parent_cover"]


def greedy_parent_cover(
    topology: WSNTopology,
    candidates: frozenset[int] | set[int],
    targets: frozenset[int] | set[int],
) -> list[int]:
    """Greedy set cover: pick candidates until every target has a parent.

    Candidates are repeatedly chosen by (most uncovered targets, smallest
    id); the returned list is in selection order.  Raises if some target has
    no candidate neighbour (cannot happen between consecutive BFS layers).
    Gains are popcounts of the topology's neighbour masks.
    """
    neighbors = topology.neighbor_masks
    ids = topology.node_ids
    remaining = topology.mask_from_nodes(targets)
    pool = topology.mask_from_nodes(candidates)
    chosen: list[int] = []
    while remaining:
        best = -1
        best_gain = 0
        # Bits run in ascending id order, so the smallest id wins ties.
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            bit = low.bit_length() - 1
            gain = (neighbors[bit] & remaining).bit_count()
            if gain > best_gain:
                best = bit
                best_gain = gain
        if best_gain == 0:
            raise ValueError(
                "greedy parent cover failed: some targets have no candidate neighbour"
            )
        chosen.append(ids[best])
        pool ^= 1 << best
        remaining &= ~neighbors[best]
    return chosen


@dataclass(frozen=True)
class BroadcastTree:
    """A BFS broadcast tree: layers, parents per layer and child assignment.

    Attributes
    ----------
    source:
        The broadcast source.
    layers:
        ``layers[ℓ]`` is the set of nodes at hop distance ``ℓ``.
    parents_per_layer:
        ``parents_per_layer[ℓ]`` are the transmitters selected from layer
        ``ℓ`` to cover layer ``ℓ + 1`` (empty for the last layer).
    parent_of:
        For every non-source node, the transmitter responsible for it.
    """

    source: int
    layers: tuple[frozenset[int], ...]
    parents_per_layer: tuple[tuple[int, ...], ...]
    parent_of: dict[int, int]

    @property
    def depth(self) -> int:
        """Number of hops from the source to the deepest layer."""
        return len(self.layers) - 1

    def children_of(self, parent: int) -> frozenset[int]:
        """The nodes assigned to ``parent`` in the tree.

        Each call scans all of :attr:`parent_of`; a caller that needs every
        parent's children (or their counts) should group ``parent_of``
        once instead, as :func:`~repro.baselines.approx26.layer_color_masks`
        does.
        """
        return frozenset(v for v, p in self.parent_of.items() if p == parent)


def build_broadcast_tree(
    topology: WSNTopology, source: int, *, parent_mode: str = "cover"
) -> BroadcastTree:
    """Build the BFS broadcast tree used by the hop-distance baselines.

    ``parent_mode`` selects how the transmitters of each layer are chosen:

    * ``"cover"`` (default) — greedy minimal set cover; the *strong* variant
      of the baseline (fewest transmitters, fewest colour rounds).
    * ``"tree"`` — every child simply attaches to its smallest-id neighbour
      in the previous layer and every such parent transmits; this is the
      *literal* "BFS tree built in a greedy manner" reading of the paper's
      baseline description and yields more transmitters per layer, hence a
      weaker baseline.  The baseline-strength ablation benchmark compares
      the two.
    """
    if parent_mode not in ("cover", "tree"):
        raise ValueError(f"parent_mode must be 'cover' or 'tree', got {parent_mode!r}")
    layers = topology.bfs_layers(source)
    if sum(len(layer) for layer in layers) != topology.num_nodes:
        raise ValueError("topology is disconnected; cannot build a broadcast tree")

    neighbors = topology.neighbor_masks
    ids = topology.node_ids
    layer_masks = [topology.mask_from_nodes(layer) for layer in layers]
    parents_per_layer: list[tuple[int, ...]] = []
    parent_of: dict[int, int] = {}
    for level in range(len(layers)):
        if level + 1 >= len(layers):
            parents_per_layer.append(())
            continue
        if parent_mode == "cover":
            parents = greedy_parent_cover(topology, layers[level], layers[level + 1])
            parents_per_layer.append(tuple(parents))
            unassigned = layer_masks[level + 1]
            for parent in parents:
                # Each parent takes its still unassigned neighbours, in id order.
                children = neighbors[topology.index_of(parent)] & unassigned
                unassigned ^= children
                while children:
                    low = children & -children
                    children ^= low
                    parent_of[ids[low.bit_length() - 1]] = parent
            if unassigned:  # pragma: no cover - guarded by greedy_parent_cover
                raise AssertionError("parent cover left children unassigned")
        else:
            previous = layer_masks[level]
            chosen = 0
            rest = layer_masks[level + 1]
            while rest:
                low = rest & -rest
                rest ^= low
                # The child's smallest-id neighbour in the previous layer.
                above = neighbors[low.bit_length() - 1] & previous
                parent_bit = above & -above
                parent_of[ids[low.bit_length() - 1]] = ids[parent_bit.bit_length() - 1]
                chosen |= parent_bit
            parents_per_layer.append(tuple(sorted(topology.nodes_from_mask(chosen))))
    return BroadcastTree(
        source=source,
        layers=tuple(layers),
        parents_per_layer=tuple(parents_per_layer),
        parent_of=parent_of,
    )
