"""Dense numpy bitset view of a topology (the vectorized backend's substrate).

Node sets have three representations, all in one bit/row order (node-id
order): ``frozenset`` objects at the public API and in the reference
engine; arbitrary-precision int bitmasks in the schedulers' search state
(see docs/design.md, "Search state"), where a coverage union or a conflict
test is one integer operation; and the boolean vectors of this view.  The
*engine-side* work — interference checking, receiver computation,
coverage replay — touches whole-network sets every round/slot, so it uses
the vectors and avoids Python-loop costs proportional to ``n`` per
operation.  :meth:`BitsetTopology.bool_from_mask` and
:meth:`BitsetTopology.mask_from_bool` convert between masks and vectors.

:class:`BitsetTopology` re-expresses the same data as numpy arrays:

* ``adjacency`` — the topology's read-only ``(n, n)`` boolean
  :attr:`~repro.network.topology.WSNTopology.adjacency_matrix`
  (``adjacency[i, j]`` iff the ``i``-th and ``j``-th node of ``node_ids``
  are neighbours), shared rather than rebuilt;
* node sets — boolean vectors of length ``n``;

so the interference predicates of :mod:`repro.network.interference` become
matrix expressions:

* receivers of a transmitter set ``T``:  ``adjacency[T].any(axis=0) & ~covered``;
* conflict existence: some uncovered node hears two or more transmitters,
  i.e. ``(adjacency[T].sum(axis=0) >= 2)`` restricted to ``~covered`` —
  which is *equivalent* to the paper's pairwise definition (a node hearing
  ``>= 2`` transmitters is a common uncovered neighbour of some pair);
* conflicting pairs (diagnostics): the Gram matrix
  ``A @ A.T`` of ``A = adjacency[T][:, ~covered]`` counts common uncovered
  neighbours per pair.

Views are cached per topology (weakly, so dropping the topology frees the
``n x n`` copies): construction makes the uint8 and float32 copies of the
adjacency, and every simulated policy and repetition over the same
deployment reuses them.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from repro.network.topology import WSNTopology

__all__ = ["BitsetTopology", "bitset_view", "UNREACHABLE_HOPS"]

#: An unreachable pair (``-1`` in the int16 hop matrix) read through the
#: unsigned view: larger than any hop distance, so column minima skip it.
UNREACHABLE_HOPS = int(np.iinfo(np.uint16).max)


class BitsetTopology:
    """Array view of a :class:`~repro.network.topology.WSNTopology`.

    The view is read-only companion data: it never mutates the topology and
    all conversions round-trip exactly (row ``i`` corresponds to
    ``topology.node_ids[i]``; node ids are stored in ascending order, so row
    order coincides with node-id order).
    """

    __slots__ = (
        "_topology_ref",
        "node_ids",
        "num_nodes",
        "adjacency",
        "adjacency_u8",
        "adjacency_f32",
        "degrees",
        "id_lookup",
        "_index",
        "_max_degree",
        "_hops",
        "__weakref__",
    )

    def __init__(self, topology: WSNTopology) -> None:
        ids = topology.node_ids
        n = len(ids)
        # Weak back-reference: views are cached per topology in a
        # WeakKeyDictionary, so a strong reference here would pin the key
        # forever and leak every cached view.
        self._topology_ref = weakref.ref(topology)
        self.num_nodes = n
        self.node_ids = np.asarray(ids, dtype=np.int64)
        self._index = {u: i for i, u in enumerate(ids)}
        # The topology's own read-only matrix, not a copy.
        adjacency = topology.adjacency_matrix
        self.adjacency = adjacency
        self.adjacency_u8 = adjacency.astype(np.uint8)
        # float32 copy for BLAS matmuls (exact for counts up to 2**24,
        # far beyond any node degree).
        self.adjacency_f32 = adjacency.astype(np.float32)
        self.degrees = adjacency.sum(axis=1)
        # Dense id -> row lookup table (node ids are small non-negative ints
        # in every supported construction path); -1 marks unknown ids.
        self.id_lookup: np.ndarray | None = None
        if n and int(self.node_ids.min(initial=0)) >= 0:
            max_id = int(self.node_ids.max(initial=0))
            if max_id <= 4 * n + 1024:
                lookup = np.full(max_id + 1, -1, dtype=np.int64)
                lookup[self.node_ids] = np.arange(n, dtype=np.int64)
                self.id_lookup = lookup
        self._max_degree: int | None = None
        self._hops: np.ndarray | None = None

    @property
    def topology(self) -> WSNTopology:
        """The topology this view was built from (alive while callers hold it)."""
        topology = self._topology_ref()
        if topology is None:  # pragma: no cover - requires racing the GC
            raise ReferenceError("the topology behind this view was garbage-collected")
        return topology

    # ------------------------------------------------------------------
    # Conversions between frozensets and array representations
    # ------------------------------------------------------------------
    def index_of(self, node_id: int) -> int:
        """Row index of ``node_id`` (raises ``KeyError`` for unknown nodes)."""
        return self._index[node_id]

    def indices(self, nodes: Iterable[int]) -> np.ndarray:
        """Sorted row indices of ``nodes`` (ascending, i.e. node-id order)."""
        lookup = self.id_lookup
        if lookup is not None and isinstance(nodes, (set, frozenset)) and len(nodes) > 16:
            # Large sets: one plain fromiter plus a table gather beats a
            # per-element dict lookup.  KeyError parity for unknown ids.
            ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
            if ids.size and 0 <= int(ids.min()) and int(ids.max()) < len(lookup):
                out = lookup[ids]
                if not (out < 0).any():
                    out.sort()
                    return out
            raise KeyError(next(u for u in nodes if u not in self._index))
        index = self._index
        out = np.fromiter((index[u] for u in nodes), dtype=np.int64)
        out.sort()
        return out

    def bool_from_nodes(self, nodes: Iterable[int]) -> np.ndarray:
        """Boolean membership vector of ``nodes``."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        index = self._index
        for u in nodes:
            mask[index[u]] = True
        return mask

    def nodes_from_bool(self, mask: np.ndarray) -> frozenset[int]:
        """Convert a boolean membership vector back to node ids."""
        # tolist() yields Python ints in one C pass — the per-element
        # int() loop dominated the lossy fast path at 500 nodes.
        return frozenset(self.node_ids[mask].tolist())

    def bool_from_mask(self, mask: int) -> np.ndarray:
        """Boolean membership vector of a bitmask (bit ``i`` is row ``i``)."""
        packed = np.frombuffer(mask.to_bytes((self.num_nodes + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=self.num_nodes, bitorder="little").view(bool)

    def mask_from_bool(self, vector: np.ndarray) -> int:
        """Bitmask of a boolean membership vector (inverse of :meth:`bool_from_mask`)."""
        return int.from_bytes(np.packbits(vector, bitorder="little").tobytes(), "little")

    # ------------------------------------------------------------------
    # Vectorized interference kernels
    # ------------------------------------------------------------------
    def receivers_bool(self, tx_idx: np.ndarray, covered_bool: np.ndarray) -> np.ndarray:
        """Uncovered nodes reached by the transmitter rows ``tx_idx``.

        The array analogue of :func:`repro.network.interference.receivers_of`.
        """
        if len(tx_idx) == 0:
            return np.zeros(self.num_nodes, dtype=bool)
        return self.adjacency[tx_idx].any(axis=0) & ~covered_bool

    def hear_counts(self, tx_idx: np.ndarray) -> np.ndarray:
        """Per-node count of transmissions heard from the rows ``tx_idx``."""
        if len(tx_idx) == 0:
            return np.zeros(self.num_nodes, dtype=np.int64)
        return self.adjacency_u8[tx_idx].sum(axis=0, dtype=np.int64)

    def has_conflict(self, tx_idx: np.ndarray, covered_bool: np.ndarray) -> bool:
        """True iff some pair of transmitters shares an uncovered neighbour.

        Equivalent to ``bool(conflicting_pairs(...))`` without materialising
        the pairs: a conflict exists iff an uncovered node hears >= 2 of the
        transmitters.
        """
        if len(tx_idx) < 2:
            return False
        counts = self.hear_counts(tx_idx)
        return bool(np.any((counts >= 2) & ~covered_bool))

    def conflicting_pairs(
        self, tx_idx: np.ndarray, covered_bool: np.ndarray
    ) -> list[tuple[int, int]]:
        """Every conflicting transmitter pair as node ids, ``(smaller, larger)``.

        Matches :func:`repro.network.interference.conflicting_pairs` exactly
        (including ordering) — ``tx_idx`` must be sorted ascending, which
        :meth:`indices` guarantees and which coincides with node-id order.
        """
        if len(tx_idx) < 2:
            return []
        exposed = self.adjacency_u8[tx_idx][:, ~covered_bool]
        common = exposed @ exposed.T
        rows, cols = np.nonzero(np.triu(common, k=1))
        ids = self.node_ids
        return [
            (int(ids[tx_idx[i]]), int(ids[tx_idx[j]]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def check_and_receivers(
        self, tx_idx: np.ndarray, covered_bool: np.ndarray
    ) -> tuple[bool, np.ndarray]:
        """Fused conflict test + receiver computation for one advance.

        Returns ``(has_conflict, receivers_bool)`` from a single pass over
        the transmitters' adjacency rows: the hear-count vector yields both
        the conflict predicate (some uncovered node hears >= 2) and the
        receivers (uncovered nodes hearing >= 1).
        """
        if len(tx_idx) == 0:
            return False, np.zeros(self.num_nodes, dtype=bool)
        uncovered = ~covered_bool
        if len(tx_idx) == 1:
            return False, self.adjacency[tx_idx[0]] & uncovered
        counts = self.adjacency_u8[tx_idx].sum(axis=0, dtype=np.int64)
        conflict = bool(np.any((counts >= 2) & uncovered))
        return conflict, (counts > 0) & uncovered

    def delivery_candidates(
        self, tx_idx: np.ndarray, covered_bool: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate delivery pairs of an advance, in canonical order.

        Returns ``(pair_rows, pair_cols)`` where pair ``i`` is the delivery
        attempt from transmitter ``tx_idx[pair_rows[i]]`` to the uncovered
        neighbour at row ``pair_cols[i]``.  ``np.nonzero`` on the sliced
        adjacency is row-major and ``tx_idx`` is sorted ascending (node-id
        order, as :meth:`indices` guarantees), so the pairs enumerate in
        ascending ``(transmitter id, receiver id)`` order — the canonical
        RNG-draw order of :class:`repro.sim.links.IndependentLossLinks`.
        """
        if len(tx_idx) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        candidates = self.adjacency[tx_idx] & ~covered_bool
        return np.nonzero(candidates)

    def hears_any(self, tx_idx: np.ndarray) -> np.ndarray:
        """Boolean vector of nodes in range of >= 1 of the rows ``tx_idx``.

        The multi-frontier kernel of the vectorized multi-source engine:
        cross-message slot contention reduces to "does an intended receiver
        of one message hear a transmitter of another", which is one row
        slice + OR-reduction per candidate advance.
        """
        if len(tx_idx) == 0:
            return np.zeros(self.num_nodes, dtype=bool)
        return self.adjacency[tx_idx].any(axis=0)

    # ------------------------------------------------------------------
    # Vectorized graph-wide queries
    # ------------------------------------------------------------------
    def nearest_hops(self, mask: int) -> np.ndarray:
        """Hop distance from the node set ``mask`` to every node, as uint16.

        Column minima of the hop matrix over the rows set in ``mask``;
        :data:`UNREACHABLE_HOPS` where no node of the set reaches (every
        column, for an empty set).  Covered columns read 0.
        """
        return self._hop_rows()[self.bool_from_mask(mask)].min(
            axis=0, initial=UNREACHABLE_HOPS
        )

    def ball_mask(self, index: int, radius: int) -> int:
        """Bitmask of the nodes within ``radius`` hops of row ``index``."""
        return self.mask_from_bool(self._hop_rows()[index] <= radius)

    def _hop_rows(self) -> np.ndarray:
        """The hop matrix through its unsigned view, built on first use."""
        if self._hops is None:
            self._hops = self.topology.hop_matrix.view(np.uint16)
        return self._hops

    def eccentricity(self, source: int) -> int:
        """Hop distance to the farthest node, mirroring the reference method.

        Raises the same :class:`ValueError` as
        :meth:`WSNTopology.eccentricity` when the network is disconnected
        from ``source``.
        """
        return self.topology.eccentricity(source)

    def max_degree(self) -> int:
        """The maximum node degree (precomputed)."""
        if self._max_degree is None:
            self._max_degree = int(self.degrees.max(initial=0))
        return self._max_degree


_VIEW_CACHE: "weakref.WeakKeyDictionary[WSNTopology, BitsetTopology]" = (
    weakref.WeakKeyDictionary()
)


def bitset_view(topology: WSNTopology) -> BitsetTopology:
    """Return the (cached) :class:`BitsetTopology` view of ``topology``."""
    view = _VIEW_CACHE.get(topology)
    if view is None:
        view = BitsetTopology(topology)
        _VIEW_CACHE[topology] = view
    return view
