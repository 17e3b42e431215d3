"""Dense numpy view of a topology: the array side of the node-set masks.

Node sets have three representations, all in one bit/row order (node-id
order): ``frozenset`` objects at the public API and in the reference
engine; arbitrary-precision int bitmasks in the schedulers' search state,
the vectorized engine and its trace validator (see docs/design.md,
"Search state"), where a coverage union, a conflict test or an advance
check is a handful of integer operations; and the boolean vectors of this
view, for the work that is whole-matrix by nature:

* column minima over the hop matrix (:meth:`BitsetTopology.nearest_hops`,
  :meth:`BitsetTopology.ball_mask`), which the time counter's bounds read;
* the lossy link model's canonical delivery pairs
  (:meth:`BitsetTopology.delivery_candidates`), drawn as one vectorized
  block;
* the wake-up index's rows (:func:`repro.dutycycle.window.window_for` is
  keyed by the view).

:meth:`BitsetTopology.bool_from_mask` and :meth:`BitsetTopology.mask_from_bool`
convert between masks and vectors.  ``adjacency`` is the topology's
read-only ``(n, n)`` boolean
:attr:`~repro.network.topology.WSNTopology.adjacency_matrix`
(``adjacency[i, j]`` iff the ``i``-th and ``j``-th node of ``node_ids``
are neighbours), shared rather than rebuilt.

Views are cached per topology (weakly, so dropping the topology frees
them), so every simulated policy and repetition over the same deployment
reuses one view and its hop rows.
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
        "_index",
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
        self.adjacency = topology.adjacency_matrix
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
    # Lossy delivery
    # ------------------------------------------------------------------
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
