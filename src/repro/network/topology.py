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

Every path builds one read-only ``(n, n)`` bool adjacency matrix in node-id
order (:attr:`WSNTopology.adjacency_matrix`), validates it, and derives
everything else from it: the int neighbour masks, the ``frozenset``
neighbourhoods and the hop rows.  The masks are precomputed at
construction so the scheduling inner loops (which query ``N(u)`` millions
of times) never pay for recomputation; the neighbourhoods, the
:class:`Node` records and the hop rows are built on demand, each once, so
a deployment attempt rejected as disconnected pays for none of them.

Node sets have two representations, in one bit order (node-id order):
``frozenset`` objects at the public API and in the reference engine, and
int bitmasks (bit ``i`` is ``node_ids[i]``) in the schedulers' search
state, the vectorized engine and its trace validator, and the BFS parent
cover of the hop-distance baselines.  The quadrant index (over the edge
list) and the energy accounting (over the rows of the senders) read
:attr:`WSNTopology.adjacency_matrix` directly, so a sweep on the
vectorized engine never builds the ``frozenset`` neighbourhoods.  Boolean numpy
vectors appear only inside whole-matrix queries — the hop-matrix column
minima (:meth:`WSNTopology.nearest_hops`, :meth:`WSNTopology.ball_mask`)
and the lossy link model's block draw — which convert at their edges with
:meth:`WSNTopology.bool_from_mask` and :meth:`WSNTopology.mask_from_bool`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.network.geometry import pairwise_distances
from repro.utils.validation import check_positive

__all__ = ["Node", "WSNTopology", "UNREACHABLE_HOPS"]

NodeId = int

#: An unreachable pair (``-1`` in the int16 hop matrix) read through the
#: unsigned view: larger than any hop distance, so column minima skip it.
UNREACHABLE_HOPS = int(np.iinfo(np.uint16).max)


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


def _sorted_nodes(nodes: Iterable[Node]) -> list[Node]:
    """``nodes`` in ascending id order; raises on a repeated id."""
    node_list = sorted(nodes, key=lambda n: n.node_id)
    if len({n.node_id for n in node_list}) != len(node_list):
        raise ValueError("duplicate node identifiers in topology")
    return node_list


def _eccentricity_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node eccentricity bounds from the full hop rows of some probes.

    Each probe ``w`` (one row of a connected graph) bounds every ``v`` by
    ``max(d(w, v), ecc(w) - d(w, v)) <= ecc(v) <= ecc(w) + d(w, v)``; the
    result keeps the tightest over all probes.  The sums are taken in int32:
    ``ecc(w) + d(w, v)`` reaches twice the diameter, which wraps in int16 on
    a path of more than 16384 nodes.
    """
    rows = rows.astype(np.int32)
    probe_ecc = rows.max(axis=1, keepdims=True)
    return np.maximum(rows, probe_ecc - rows).max(axis=0), (probe_ecc + rows).min(axis=0)


class WSNTopology:
    """An immutable WSN topology with precomputed neighbour masks.

    The int masks (:meth:`neighbor_mask`, :attr:`neighbor_masks`) and the
    adjacency matrix are what the schedulers, the vectorized engine and
    the per-cell set-up read.
    The ``frozenset`` neighbourhoods (:meth:`neighbors` and the other set
    queries) and the :class:`Node` records are built on first use; they
    serve the public set API, the exact solvers, the set-based reference
    engine and the set-based reference oracles of the test suite.

    Parameters
    ----------
    nodes:
        The sensor nodes.  Identifiers must be unique.
    adjacency:
        Mapping from node id to the set of neighbour ids.  Must be symmetric
        and irreflexive, and every key must be a node id.
    radius:
        The communication radius used to build the adjacency, if any.  Kept
        for reporting; ``None`` for hand-specified topologies.
    """

    __slots__ = (
        "_nodes",
        "_matrix",
        "_adjacency",
        "_radius",
        "_node_ids",
        "_positions",
        "_id_to_index",
        "_neighbor_masks",
        "_index_masks",
        "_full_mask",
        "_node_set",
        "_hops",
        "_hop_built",
        "_hop_matrix",
        "_unsigned_hops",
        "_max_degree",
        # Weak-referenceable so derived indexes (the wake-up windows, the
        # quadrant index) can be cached per topology without keeping dead
        # topologies alive.
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        radius: float | None = None,
    ) -> None:
        node_list = _sorted_nodes(nodes)
        index = {n.node_id: i for i, n in enumerate(node_list)}
        strays = adjacency.keys() - index.keys()
        if strays:
            raise ValueError(f"adjacency lists nodes not in the topology: {sorted(strays)}")
        matrix = np.zeros((len(node_list), len(node_list)), dtype=bool)
        for i, node in enumerate(node_list):
            neighbours = set(adjacency.get(node.node_id, ()))
            unknown = neighbours - index.keys()
            if unknown:
                raise ValueError(
                    f"node {node.node_id} has neighbours not in the topology: {sorted(unknown)}"
                )
            matrix[i, [index[v] for v in neighbours]] = True
        self._build_from_nodes(node_list, matrix, radius)

    def _build_from_nodes(
        self, node_list: list[Node], matrix: np.ndarray, radius: float | None
    ) -> None:
        """:meth:`_build` for a node list from :func:`_sorted_nodes`, kept as given."""
        self._build(
            [n.node_id for n in node_list],
            np.array([[n.x, n.y] for n in node_list], dtype=float).reshape(-1, 2),
            matrix,
            radius,
        )
        self._nodes = {n.node_id: n for n in node_list}

    def _build(
        self, ids: list[NodeId], positions: np.ndarray, matrix: np.ndarray, radius: float | None
    ) -> None:
        """Validate the adjacency ``matrix`` and derive every other view from it.

        Every construction path ends here.  ``ids`` are unique and
        ascending, ``positions`` is their ``(n, 2)`` float array and
        ``matrix`` the ``(n, n)`` bool adjacency in that order; the topology
        takes ownership of both arrays.  The :class:`Node` records and the
        ``frozenset`` neighbourhoods are built on first use
        (:meth:`_node_map`, :meth:`_neighbour_sets`): a deployment attempt
        rejected as disconnected reads neither.
        """
        loops = matrix.diagonal()
        if loops.any():
            raise ValueError(f"node {ids[int(loops.argmax())]} listed as its own neighbour")
        one_way = matrix & ~matrix.T
        if one_way.any():
            u, v = (ids[k] for k in np.argwhere(one_way)[0].tolist())
            raise ValueError(f"adjacency is not symmetric: {u}->{v}")
        matrix.setflags(write=False)
        self._matrix = matrix
        self._nodes: dict[NodeId, Node] | None = None
        self._adjacency: dict[NodeId, frozenset[NodeId]] | None = None
        self._node_ids: tuple[NodeId, ...] = tuple(ids)
        self._node_set: frozenset[NodeId] = frozenset(ids)
        self._id_to_index: dict[NodeId, int] = {u: i for i, u in enumerate(ids)}
        self._positions = positions
        self._radius = radius

        # Bitmask fast path: node sets represented as Python integers with
        # bit ``i`` standing for ``node_ids[i]``.  The scheduling inner loops
        # (conflict tests, coverage unions, frontier extraction) operate on
        # these masks, which is orders of magnitude cheaper than frozenset
        # algebra at the paper's 300-node scale.
        packed = np.packbits(matrix, axis=1, bitorder="little")
        self._index_masks: tuple[int, ...] = tuple(
            int.from_bytes(row, "little") for row in packed
        )
        self._neighbor_masks: dict[NodeId, int] = dict(zip(ids, self._index_masks))
        self._full_mask = (1 << len(ids)) - 1
        # Hop rows fill ``_hops`` on demand (``_hop_built`` marks them);
        # ``_hop_matrix`` is set once every row is built.
        self._hops: np.ndarray | None = None
        self._hop_built: np.ndarray | None = None
        self._hop_matrix: np.ndarray | None = None
        self._unsigned_hops: np.ndarray | None = None
        self._max_degree: int | None = None

    def _node_map(self) -> dict[NodeId, Node]:
        """The :class:`Node` of every id, built on first use."""
        if self._nodes is None:
            self._nodes = {
                u: Node(node_id=u, x=x, y=y)
                for u, (x, y) in zip(self._node_ids, self._positions.tolist())
            }
        return self._nodes

    def _neighbour_sets(self) -> dict[NodeId, frozenset[NodeId]]:
        """``N(u)`` as a ``frozenset`` for every id, built on first use.

        Only the set API builds this (:meth:`neighbors`, :meth:`has_edge`,
        :meth:`edges`, ...): the exact solvers, the set-based reference
        engine and reference oracles.  The per-cell set-up of a sweep reads
        the masks and the adjacency matrix instead and never triggers it.

        Row-major nonzeros list each row's neighbours in ascending id
        order.  Each frozenset is copied from a set filled in that order:
        set iteration order depends on the hash-table size, and the copy
        gives every path the table (and so the order) of a frozenset of an
        incrementally built set, which order-sensitive consumers such as
        the ILP's constraint terms follow.
        """
        if self._adjacency is None:
            matrix = self._matrix
            _, cols = np.nonzero(matrix)
            flat = np.asarray(self._node_ids, dtype=object)[cols].tolist()
            ends = np.cumsum(matrix.sum(axis=1)).tolist()
            self._adjacency = {
                u: frozenset(set(flat[start:end]))
                for u, start, end in zip(self._node_ids, [0, *ends], ends)
            }
        return self._adjacency

    @classmethod
    def _from_nodes(
        cls, node_list: list[Node], matrix: np.ndarray, radius: float | None
    ) -> "WSNTopology":
        topology = cls.__new__(cls)
        topology._build_from_nodes(node_list, matrix, radius)
        return topology

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
        ids = list(range(count)) if node_ids is None else [int(u) for u in node_ids]
        if len(ids) != count:
            raise ValueError("node_ids length must match positions length")

        within = pairwise_distances(positions) <= radius + 1e-12
        np.fill_diagonal(within, False)
        order = sorted(range(count), key=ids.__getitem__)
        if order != list(range(count)):
            within = within[np.ix_(order, order)]
            positions = positions[order]
            ids = [ids[i] for i in order]
        if len(set(ids)) != count:
            raise ValueError("duplicate node identifiers in topology")
        topology = cls.__new__(cls)
        topology._build(ids, np.array(positions, dtype=float).reshape(-1, 2), within, radius)
        return topology

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
        node_list = _sorted_nodes(
            Node(node_id=u, x=float(p[0]), y=float(p[1])) for u, p in positions.items()
        )
        index = {n.node_id: i for i, n in enumerate(node_list)}
        rows: list[int] = []
        cols: list[int] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}) references a node without a position")
            rows.append(index[u])
            cols.append(index[v])
        matrix = np.zeros((len(node_list), len(node_list)), dtype=bool)
        matrix[rows, cols] = True
        matrix[cols, rows] = True
        return cls._from_nodes(node_list, matrix, radius)

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
        return int(np.count_nonzero(self._matrix)) // 2

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
        return node_id in self._id_to_index

    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` for ``node_id``."""
        return self._node_map()[node_id]

    def position(self, node_id: NodeId) -> tuple[float, float]:
        """Return the (x, y) position of ``node_id``."""
        return self._node_map()[node_id].position

    @property
    def positions(self) -> np.ndarray:
        """A read-only (n, 2) array of positions, row order = ``node_ids``."""
        view = self._positions.view()
        view.setflags(write=False)
        return view

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """The read-only ``(n, n)`` bool adjacency; row and column order = :attr:`node_ids`.

        Built once at construction on every path.  The neighbour sets, the
        neighbour masks and the hop matrix derive from it; the quadrant
        index and the lossy link model's block draw read this very array.
        """
        return self._matrix

    def neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """The 1-hop neighbourhood ``N(u)`` (excluding ``u`` itself)."""
        return self._neighbour_sets()[node_id]

    def closed_neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """``N(u) ∪ {u}``."""
        return self._neighbour_sets()[node_id] | {node_id}

    def degree(self, node_id: NodeId) -> int:
        """The number of neighbours of ``node_id``."""
        return self._neighbor_masks[node_id].bit_count()

    def max_degree(self) -> int:
        """The maximum node degree of the network, computed on first use."""
        if self._max_degree is None:
            self._max_degree = max((mask.bit_count() for mask in self._index_masks), default=0)
        return self._max_degree

    def average_degree(self) -> float:
        """The mean node degree of the network."""
        if not self._node_ids:
            return 0.0
        return 2 * self.num_edges / self.num_nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True iff ``u`` and ``v`` are within communication range."""
        return v in self._neighbour_sets()[u]

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over each undirected link once, as (smaller, larger)."""
        adjacency = self._neighbour_sets()
        for u in self._node_ids:
            for v in adjacency[u]:
                if u < v:
                    yield (u, v)

    def uncovered_neighbors(
        self, node_id: NodeId, covered: frozenset[NodeId] | set[NodeId]
    ) -> frozenset[NodeId]:
        """``N(u) ∩ W̄``: the neighbours of ``u`` still missing the message."""
        return self._neighbour_sets()[node_id] - covered

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

    def bool_from_mask(self, mask: int) -> np.ndarray:
        """Boolean membership vector of a bitmask (entry ``i`` is bit ``i``)."""
        n = self.num_nodes
        packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little").view(bool)

    @staticmethod
    def mask_from_bool(vector: np.ndarray) -> int:
        """Bitmask of a boolean membership vector (inverse of :meth:`bool_from_mask`)."""
        return int.from_bytes(np.packbits(vector, bitorder="little").tobytes(), "little")

    # ------------------------------------------------------------------
    # Graph-wide queries (hop rows are built on demand; is_connected also
    # answers from the neighbour masks)
    # ------------------------------------------------------------------
    @property
    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop distances as a read-only ``(n, n)`` int16 array.

        Row and column order is :attr:`node_ids`; ``-1`` marks unreachable
        pairs.  Hop rows are built on demand: a single-source query
        (:meth:`hop_distances`, :meth:`bfs_layers`, :meth:`eccentricity`)
        builds only its own row, and source vetting
        (:meth:`nodes_with_eccentricity`) only the rows its bounds need.
        The first read of this property builds every row still missing in
        one wavefront and keeps the matrix for the topology's lifetime; the
        whole-graph readers (:meth:`eccentricities`, :meth:`diameter`,
        ``spread`` source placement, the time counter's lower bound) use it.
        """
        if self._hop_matrix is None:
            self._build_hop_rows(np.arange(self.num_nodes))
            self._hops.setflags(write=False)
            self._hop_matrix = self._hops
        return self._hop_matrix

    def _build_hop_rows(self, indices: np.ndarray) -> None:
        """Build the hop rows of the bit ``indices`` not built yet, as one wavefront.

        Row ``k`` of ``frontier`` is the BFS frontier of source ``live[k]``;
        one matrix product with the adjacency advances every live frontier
        by one hop, so a call costs one product per BFS layer instead of one
        Python queue per source.  ``hops`` counts, per node, the layers after
        which it was still unreached: that is its hop distance once it is
        reached, and one add per layer is far cheaper than scattering each
        layer's depth.  A source whose frontier empties has finished: its
        row is written out (``-1`` where still unreached) and dropped, so
        each product covers only the sources still running.
        """
        n = self.num_nodes
        if self._hops is None:
            if n > np.iinfo(np.int16).max:
                raise ValueError(f"hop matrix supports at most 32767 nodes, got {n}")
            self._hops = np.full((n, n), -1, dtype=np.int16)
            self._hop_built = np.zeros(n, dtype=bool)
        live = indices[~self._hop_built[indices]]
        if not live.size:
            return
        built = live
        adjacency = self._matrix.astype(np.float32)
        frontier = np.zeros((live.size, n), dtype=bool)
        frontier[np.arange(live.size), live] = True
        unreached = ~frontier
        hops = unreached.astype(np.int16)
        while live.size:
            frontier = frontier.astype(np.float32) @ adjacency > 0
            frontier &= unreached
            running = frontier.any(axis=1)
            if not running.all():
                done = ~running
                self._hops[live[done]] = np.where(unreached[done], -1, hops[done])
                live, frontier = live[running], frontier[running]
                unreached, hops = unreached[running], hops[running]
            unreached ^= frontier
            np.add(hops, unreached.view(np.int8), out=hops)
        self._hop_built[built] = True

    def _hop_row(self, source: NodeId) -> np.ndarray:
        if source not in self._id_to_index:
            raise KeyError(f"unknown source node {source}")
        index = self._id_to_index[source]
        if self._hop_matrix is None:
            self._build_hop_rows(np.array([index]))
        row = self._hops[index]
        row.setflags(write=False)
        return row

    def _hop_rows_unsigned(self) -> np.ndarray:
        """The hop matrix through its uint16 view (``-1`` reads as
        :data:`UNREACHABLE_HOPS`), kept for the topology's lifetime."""
        if self._unsigned_hops is None:
            self._unsigned_hops = self.hop_matrix.view(np.uint16)
        return self._unsigned_hops

    def nearest_hops(self, mask: int) -> np.ndarray:
        """Hop distance from the node set ``mask`` to every node, as uint16.

        Column minima of the hop matrix over the rows set in ``mask``;
        :data:`UNREACHABLE_HOPS` where no node of the set reaches (every
        column, for an empty set).  Covered columns read 0.
        """
        return self._hop_rows_unsigned()[self.bool_from_mask(mask)].min(
            axis=0, initial=UNREACHABLE_HOPS
        )

    def ball_mask(self, index: int, radius: int) -> int:
        """Bitmask of the nodes within ``radius`` hops of bit ``index``."""
        return self.mask_from_bool(self._hop_rows_unsigned()[index] <= radius)

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
        hops = self.hop_matrix
        if not self.is_connected():
            self.eccentricity(self._node_ids[0])  # raises: the first row has a gap
        return hops.max(axis=1)

    def nodes_with_eccentricity(self, low: int, high: int | None = None) -> list[NodeId]:
        """The ids of the nodes whose eccentricity lies in ``[low, high]``, ascending.

        ``high=None`` leaves the window unbounded above.  Every node is
        decided exactly from the bounds that any node ``w`` with a built row
        gives (Takes & Kosters, *Algorithms* 6(1), 2013)::

            max(d(w, v), ecc(w) - d(w, v)) <= ecc(v) <= ecc(w) + d(w, v)

        in at most two wavefronts.  The first builds the rows of the
        geometric extremes (lowest and highest ``x``, ``y``, ``x + y`` and
        ``x - y``) and of the node nearest the centroid; peripheral and
        central nodes give the tightest bounds.  The second builds the row
        of every node whose bounds still straddle an edge of the window, and
        its row maximum decides it.  Raises the :meth:`eccentricity`
        ``ValueError`` if the network is disconnected.
        """
        if not self._node_ids:
            return []
        top = self.num_nodes if high is None else high  # every eccentricity is < n
        xy = self._positions
        keys = np.stack([xy[:, 0], xy[:, 1], xy.sum(axis=1), xy[:, 0] - xy[:, 1]])
        centre = ((xy - xy.mean(axis=0)) ** 2).sum(axis=1).argmin()
        # A mask dedupes the probes: the first np.unique call of a
        # process maps ~1.6 MB of extra resident memory.
        chosen = np.zeros(self.num_nodes, dtype=bool)
        chosen[[*keys.argmin(axis=1), *keys.argmax(axis=1), centre]] = True
        probes = np.flatnonzero(chosen)
        self._build_hop_rows(probes)
        rows = self._hops[probes]
        if (rows[0] < 0).any():
            self.eccentricity(self._node_ids[probes[0]])  # raises: the row has a gap
        lower, upper = _eccentricity_bounds(rows)
        inside = (lower >= low) & (upper <= top)
        outside = (upper < low) | (lower > top)
        pending = np.flatnonzero(~inside & ~outside)
        self._build_hop_rows(pending)
        lower[pending] = upper[pending] = self._hops[pending].max(axis=1)
        eligible = np.flatnonzero((lower >= low) & (upper <= top)).tolist()
        return [self._node_ids[i] for i in eligible]

    def diameter(self) -> int:
        """The largest eccentricity over all nodes (hop diameter)."""
        return int(self.eccentricities().max())

    def is_connected(self) -> bool:
        """True iff every node is reachable from every other node.

        Reads the hop matrix when it is already built; otherwise one BFS
        over :attr:`neighbor_masks` answers, so a deployment rejected as
        disconnected never pays for a hop row.
        """
        if self.num_nodes == 0:
            return True
        if self._hop_matrix is not None:
            return bool((self._hop_matrix[0] >= 0).all())
        masks = self._index_masks
        reached = frontier = 1
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~reached
            reached |= frontier
        return reached == self._full_mask

    # ------------------------------------------------------------------
    # Interop / reporting
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Return an equivalent :class:`networkx.Graph` (for cross-checks)."""
        import networkx as nx

        graph = nx.Graph()
        nodes = self._node_map()
        for node_id in self._node_ids:
            node = nodes[node_id]
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
