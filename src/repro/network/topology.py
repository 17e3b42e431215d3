"""WSN topology under the unit-disc-graph (UDG) model.

The paper models a WSN as a graph ``G = (N, E)`` where ``N(u)`` is the set of
neighbours within the communication radius of node ``u`` (Section III).  The
:class:`WSNTopology` class below is the single source of truth used by every
other subsystem: colouring, the time counter ``M``, the E-model construction,
the baselines, and both simulators.

Two construction paths are supported:

* :meth:`WSNTopology.from_positions` — the UDG induced by node coordinates
  and a communication radius (the path used by random deployments); and
* :meth:`WSNTopology.from_edges` — an explicit edge list with coordinates
  attached, used for the paper's hand-drawn example topologies (Figures 1
  and 2) where the adjacency is dictated by the figure rather than a radius.

Neighbourhoods are precomputed into ``frozenset`` objects at construction so
the scheduling inner loops (which query ``N(u)`` millions of times) never pay
for recomputation, following the "compute once, reuse everywhere" guidance of
the HPC Python guides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.network.geometry import pairwise_distances
from repro.utils.validation import check_positive

__all__ = ["Node", "WSNTopology"]

NodeId = int


@dataclass(frozen=True, order=True)
class Node:
    """A sensor node: an integer identifier and a planar position.

    Attributes
    ----------
    node_id:
        Integer identifier, unique within a topology.
    x, y:
        Position in the deployment area (the paper uses feet).
    """

    node_id: NodeId
    x: float
    y: float

    @property
    def position(self) -> tuple[float, float]:
        """The (x, y) position as a tuple."""
        return (self.x, self.y)


class WSNTopology:
    """An immutable WSN topology with precomputed neighbourhoods.

    Parameters
    ----------
    nodes:
        The sensor nodes.  Identifiers must be unique.
    adjacency:
        Mapping from node id to the set of neighbour ids.  Must be symmetric
        and irreflexive.
    radius:
        The communication radius used to build the adjacency, if any.  Kept
        for reporting; ``None`` for hand-specified topologies.
    """

    __slots__ = (
        "_nodes",
        "_adjacency",
        "_radius",
        "_node_ids",
        "_positions",
        "_id_to_index",
        "_neighbor_masks",
        "_index_masks",
        "_full_mask",
        "_node_set",
        "_hop_matrix",
        # Weak-referenceable so derived views (e.g. the vectorized backend's
        # BitsetTopology) can be cached per topology without keeping dead
        # topologies alive.
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        radius: float | None = None,
    ) -> None:
        node_list = sorted(nodes, key=lambda n: n.node_id)
        ids = [n.node_id for n in node_list]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node identifiers in topology")
        self._nodes: dict[NodeId, Node] = {n.node_id: n for n in node_list}
        self._node_ids: tuple[NodeId, ...] = tuple(ids)
        self._node_set: frozenset[NodeId] = frozenset(ids)
        self._id_to_index: dict[NodeId, int] = {u: i for i, u in enumerate(ids)}
        self._positions = np.array([[n.x, n.y] for n in node_list], dtype=float).reshape(-1, 2)
        self._radius = radius

        frozen: dict[NodeId, frozenset[NodeId]] = {}
        for node_id in ids:
            neighbours = frozenset(adjacency.get(node_id, ()))
            if node_id in neighbours:
                raise ValueError(f"node {node_id} listed as its own neighbour")
            unknown = neighbours - self._nodes.keys()
            if unknown:
                raise ValueError(
                    f"node {node_id} has neighbours not in the topology: {sorted(unknown)}"
                )
            frozen[node_id] = neighbours
        for u, neighbours in frozen.items():
            for v in neighbours:
                if u not in frozen[v]:
                    raise ValueError(f"adjacency is not symmetric: {u}->{v}")
        self._adjacency = frozen

        # Bitmask fast path: node sets represented as Python integers with
        # bit ``i`` standing for ``node_ids[i]``.  The scheduling inner loops
        # (conflict tests, coverage unions, frontier extraction) operate on
        # these masks, which is orders of magnitude cheaper than frozenset
        # algebra at the paper's 300-node scale.
        self._neighbor_masks: dict[NodeId, int] = {}
        for u, neighbours in frozen.items():
            mask = 0
            for v in neighbours:
                mask |= 1 << self._id_to_index[v]
            self._neighbor_masks[u] = mask
        self._index_masks: tuple[int, ...] = tuple(
            self._neighbor_masks[u] for u in ids
        )
        self._full_mask = (1 << len(ids)) - 1
        self._hop_matrix: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(
        cls,
        positions: Sequence[tuple[float, float]] | np.ndarray,
        radius: float,
        node_ids: Sequence[NodeId] | None = None,
    ) -> "WSNTopology":
        """Build the unit-disc graph induced by ``positions`` and ``radius``.

        Two nodes are neighbours iff their Euclidean distance is at most
        ``radius`` (inclusive, matching the UDG convention).
        """
        check_positive("radius", radius)
        positions = np.asarray(positions, dtype=float)
        count = positions.shape[0]
        if node_ids is None:
            node_ids = list(range(count))
        if len(node_ids) != count:
            raise ValueError("node_ids length must match positions length")

        nodes = [
            Node(node_id=int(node_ids[i]), x=float(positions[i, 0]), y=float(positions[i, 1]))
            for i in range(count)
        ]
        distances = pairwise_distances(positions)
        within = distances <= radius + 1e-12
        np.fill_diagonal(within, False)
        adjacency = {
            int(node_ids[i]): {int(node_ids[j]) for j in np.flatnonzero(within[i])}
            for i in range(count)
        }
        return cls(nodes, adjacency, radius=radius)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId]],
        positions: Mapping[NodeId, tuple[float, float]],
        radius: float | None = None,
    ) -> "WSNTopology":
        """Build a topology from an explicit undirected edge list.

        Used for the paper's example figures, where the adjacency is part of
        the figure.  Every endpoint must have a position in ``positions``.
        """
        adjacency: dict[NodeId, set[NodeId]] = {u: set() for u in positions}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in positions or v not in positions:
                raise ValueError(f"edge ({u}, {v}) references a node without a position")
            adjacency[u].add(v)
            adjacency[v].add(u)
        nodes = [Node(node_id=u, x=float(p[0]), y=float(p[1])) for u, p in positions.items()]
        return cls(nodes, adjacency, radius=radius)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def radius(self) -> float | None:
        """The communication radius used for construction (``None`` if n/a)."""
        return self._radius

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network, |N|."""
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        """Number of undirected links."""
        return sum(len(v) for v in self._adjacency.values()) // 2

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """All node identifiers in ascending order."""
        return self._node_ids

    @property
    def node_set(self) -> frozenset[NodeId]:
        """All node identifiers as a frozenset (the paper's ``N``).

        Precomputed at construction: the simulation loops compare against
        it once per round/slot.
        """
        return self._node_set

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._node_ids)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` for ``node_id``."""
        return self._nodes[node_id]

    def position(self, node_id: NodeId) -> tuple[float, float]:
        """Return the (x, y) position of ``node_id``."""
        return self._nodes[node_id].position

    @property
    def positions(self) -> np.ndarray:
        """A read-only (n, 2) array of positions, row order = ``node_ids``."""
        view = self._positions.view()
        view.setflags(write=False)
        return view

    def neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """The 1-hop neighbourhood ``N(u)`` (excluding ``u`` itself)."""
        return self._adjacency[node_id]

    def closed_neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """``N(u) ∪ {u}``."""
        return self._adjacency[node_id] | {node_id}

    def degree(self, node_id: NodeId) -> int:
        """The number of neighbours of ``node_id``."""
        return len(self._adjacency[node_id])

    def max_degree(self) -> int:
        """The maximum node degree of the network."""
        return max((len(v) for v in self._adjacency.values()), default=0)

    def average_degree(self) -> float:
        """The mean node degree of the network."""
        if not self._node_ids:
            return 0.0
        return sum(len(v) for v in self._adjacency.values()) / self.num_nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True iff ``u`` and ``v`` are within communication range."""
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over each undirected link once, as (smaller, larger)."""
        for u in self._node_ids:
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    def uncovered_neighbors(
        self, node_id: NodeId, covered: frozenset[NodeId] | set[NodeId]
    ) -> frozenset[NodeId]:
        """``N(u) ∩ W̄``: the neighbours of ``u`` still missing the message."""
        return self._adjacency[node_id] - covered

    # ------------------------------------------------------------------
    # Bitmask fast path (used by the scheduling inner loops)
    # ------------------------------------------------------------------
    @property
    def full_mask(self) -> int:
        """Bitmask with one bit set per node (the whole node set ``N``)."""
        return self._full_mask

    def index_of(self, node_id: NodeId) -> int:
        """Bit index of ``node_id`` in the mask representation."""
        return self._id_to_index[node_id]

    def neighbor_mask(self, node_id: NodeId) -> int:
        """``N(u)`` as a bitmask."""
        return self._neighbor_masks[node_id]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """``N(u)`` as a bitmask for every node, indexed by bit (node-id order)."""
        return self._index_masks

    def mask_from_nodes(self, nodes: Iterable[NodeId]) -> int:
        """Convert an iterable of node ids to a bitmask."""
        mask = 0
        index = self._id_to_index
        for u in nodes:
            mask |= 1 << index[u]
        return mask

    def nodes_from_mask(self, mask: int) -> frozenset[NodeId]:
        """Convert a bitmask back to a frozenset of node ids."""
        ids = self._node_ids
        result = []
        while mask:
            low = mask & -mask
            result.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)

    # ------------------------------------------------------------------
    # Graph-wide queries (all read the hop matrix)
    # ------------------------------------------------------------------
    @property
    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop distances as a read-only ``(n, n)`` int16 array.

        Row and column order is :attr:`node_ids`; ``-1`` marks unreachable
        pairs.  Built on first use and kept for the topology's lifetime:
        it is the one distance index behind every hop query (BFS layers,
        eccentricities, the time counter's lower bound, source vetting).
        """
        if self._hop_matrix is None:
            self._hop_matrix = self._build_hop_matrix()
        return self._hop_matrix

    def _build_hop_matrix(self) -> np.ndarray:
        """One BFS from every node at once, as a multi-source wavefront.

        Row ``i`` of ``frontier`` is source ``i``'s BFS frontier; one matrix
        product with the adjacency advances all ``n`` frontiers by one hop,
        so the build costs one product per BFS layer instead of ``n``
        Python queues.
        """
        n = self.num_nodes
        if n > np.iinfo(np.int16).max:
            raise ValueError(f"hop matrix supports at most 32767 nodes, got {n}")
        index = self._id_to_index
        adjacency = np.zeros((n, n), dtype=np.float32)
        for u, neighbours in self._adjacency.items():
            adjacency[index[u], [index[v] for v in neighbours]] = 1.0
        hops = np.full((n, n), -1, dtype=np.int16)
        reached = np.eye(n, dtype=bool)
        hops[reached] = 0
        frontier = reached
        depth = 0
        while True:
            depth += 1
            frontier = (frontier.astype(np.float32) @ adjacency > 0) & ~reached
            if not frontier.any():
                break
            hops[frontier] = depth
            reached |= frontier
        hops.setflags(write=False)
        return hops

    def _hop_row(self, source: NodeId) -> np.ndarray:
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source}")
        return self.hop_matrix[self._id_to_index[source]]

    def hop_distances(self, source: NodeId) -> dict[NodeId, int]:
        """Hop distance from ``source`` to every reachable node."""
        row = self._hop_row(source)
        ids = self._node_ids
        return {ids[i]: d for i, d in enumerate(row.tolist()) if d >= 0}

    def bfs_layers(self, source: NodeId) -> list[frozenset[NodeId]]:
        """Nodes grouped by hop distance: layer 0 is ``{source}``."""
        row = self._hop_row(source)
        ids = np.asarray(self._node_ids)
        return [
            frozenset(ids[row == depth].tolist()) for depth in range(int(row.max()) + 1)
        ]

    def eccentricity(self, source: NodeId) -> int:
        """Hop distance from ``source`` to the farthest *reachable* node.

        This is the quantity ``d`` of Theorem 1.  Raises if the network is
        disconnected from ``source`` (the broadcast could never finish).
        """
        row = self._hop_row(source)
        unreachable = int(np.count_nonzero(row < 0))
        if unreachable:
            raise ValueError(
                f"network is disconnected: {unreachable} nodes unreachable from {source}"
            )
        return int(row.max())

    def eccentricities(self) -> np.ndarray:
        """Every node's eccentricity, in :attr:`node_ids` order.

        Raises the :meth:`eccentricity` ``ValueError`` if the network is
        disconnected.
        """
        if not self.is_connected():
            self.eccentricity(self._node_ids[0])  # raises: the first row has a gap
        return self.hop_matrix.max(axis=1)

    def diameter(self) -> int:
        """The largest eccentricity over all nodes (hop diameter)."""
        return int(self.eccentricities().max())

    def is_connected(self) -> bool:
        """True iff every node is reachable from every other node."""
        if self.num_nodes == 0:
            return True
        return bool((self.hop_matrix[0] >= 0).all())

    # ------------------------------------------------------------------
    # Interop / reporting
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Return an equivalent :class:`networkx.Graph` (for cross-checks)."""
        import networkx as nx

        graph = nx.Graph()
        for node_id in self._node_ids:
            node = self._nodes[node_id]
            graph.add_node(node_id, pos=(node.x, node.y))
        graph.add_edges_from(self.edges())
        return graph

    def density(self, area: float | None = None) -> float:
        """Nodes per unit area.

        ``area`` defaults to the bounding-box area of the deployment, which
        matches the paper's "nodes per Sq. Ft. over a 50 x 50 Sq. Ft. area"
        when the deployment spans the full area.
        """
        if area is None:
            if self.num_nodes < 2:
                return 0.0
            mins = self._positions.min(axis=0)
            maxs = self._positions.max(axis=0)
            area = float(np.prod(np.maximum(maxs - mins, 1e-9)))
        return self.num_nodes / area

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WSNTopology(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"radius={self._radius})"
        )
