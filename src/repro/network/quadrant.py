"""Quadrant partition ``Q_i(u)`` used by the E-model (Section IV-E).

The paper's lightweight estimation attaches a 4-tuple ``E_1(u)..E_4(u)`` to
every node, one entry per quadrant with ``u`` as the origin.  The partition
convention used here is the usual counter-clockwise quadrant numbering with
half-open boundaries so that every neighbour falls in exactly one quadrant:

* ``Q_1(u)``: ``dx > 0  and dy >= 0``   (east to north, excluding north)
* ``Q_2(u)``: ``dx <= 0 and dy > 0``    (north to west, excluding west)
* ``Q_3(u)``: ``dx < 0  and dy <= 0``   (west to south, excluding south)
* ``Q_4(u)``: ``dx >= 0 and dy < 0``    (south to east, excluding east)

This module is the one owner of that convention.  :class:`QuadrantIndex`
classifies every neighbourhood of a topology at once and is what the
E-model and the network-edge detection read.

A neighbour at exactly ``u``'s position belongs to no quadrant.  Nothing
upstream prevents it — :func:`repro.network.deployment.deploy_uniform`
draws positions independently and does not reject repeats, and
hand-written topologies may place two nodes on one spot — so the index
build rejects it with a :class:`ValueError` naming both node ids.
"""

from __future__ import annotations

import weakref
from itertools import islice

import numpy as np

from repro.network.topology import WSNTopology

__all__ = ["QUADRANTS", "QuadrantIndex", "quadrant_view"]

#: The four quadrant labels, in the order used by the 4-tuple ``E``.
QUADRANTS: tuple[int, int, int, int] = (1, 2, 3, 4)


def _quadrant_tests(dx, dy):
    """Membership of offsets ``(dx, dy)`` in ``Q_1..Q_4``, in label order, elementwise."""
    return (
        (dx > 0) & (dy >= 0),
        (dx <= 0) & (dy > 0),
        (dx < 0) & (dy <= 0),
        (dx >= 0) & (dy < 0),
    )


class QuadrantIndex:
    """Every node's quadrant neighbour sets ``N(u) ∩ Q_i(u)``, built once.

    Row ``r`` stands for ``topology.node_ids[r]`` (the bit order of the
    topology's masks).  For quadrant label ``q``:

    * ``masks[q - 1][r]`` — the neighbours of row ``r`` in ``Q_q`` as an
      int bitmask;
    * ``rows[q - 1][r]`` — the same neighbours as a tuple of row indices;
    * ``empty[q - 1]`` — boolean vector, true where that quadrant holds no
      neighbour.

    Build with :func:`quadrant_view`, which caches one index per topology.
    """

    __slots__ = ("masks", "rows", "empty")

    def __init__(self, topology: WSNTopology) -> None:
        n = topology.num_nodes
        # One entry per directed edge r -> c, in row-major order (the order
        # of ``np.nonzero``); (dx, dy) is c's offset seen from r.
        rows, cols = np.divmod(np.flatnonzero(topology.adjacency_matrix), n)
        positions = topology.positions
        dx = positions[cols, 0] - positions[rows, 0]
        dy = positions[cols, 1] - positions[rows, 1]
        coincident = (dx == 0.0) & (dy == 0.0)
        if coincident.any():
            ids = topology.node_ids
            first = int(coincident.argmax())
            u, v = ids[int(rows[first])], ids[int(cols[first])]
            raise ValueError(
                f"nodes {u} and {v} are neighbours at the same position; "
                "quadrant undefined"
            )
        # Label 0..3 of each edge: exactly one test holds off the origin.
        _, in_q2, in_q3, in_q4 = (test.view(np.int8) for test in _quadrant_tests(dx, dy))
        labels = in_q2 + in_q3 * 2 + in_q4 * 3
        members = np.zeros((4, n, n), dtype=bool)
        members[labels, rows, cols] = True
        packed = np.packbits(members, axis=2, bitorder="little")
        # A stable sort by label keeps each (quadrant, row) run in column
        # order, and the runs follow one another row by row.
        columns = cols[np.argsort(labels, kind="stable")].tolist()
        counts = np.bincount(labels.astype(np.intp) * n + rows, minlength=4 * n)
        ends = np.cumsum(counts).tolist()
        # ``runs`` yields the n row runs of quadrant 1, then of quadrant 2, ...
        runs = zip([0, *ends[:-1]], ends)
        self.masks: tuple[tuple[int, ...], ...] = tuple(
            tuple(int.from_bytes(row, "little") for row in plane) for plane in packed
        )
        self.rows: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(tuple(columns[s:e]) for s, e in islice(runs, n)) for _ in range(4)
        )
        self.empty: tuple[np.ndarray, ...] = tuple(counts.reshape(4, n) == 0)


_INDEX_CACHE: "weakref.WeakKeyDictionary[WSNTopology, QuadrantIndex]" = (
    weakref.WeakKeyDictionary()
)


def quadrant_view(topology: WSNTopology) -> QuadrantIndex:
    """Return the (cached) :class:`QuadrantIndex` of ``topology``."""
    index = _INDEX_CACHE.get(topology)
    if index is None:
        index = QuadrantIndex(topology)
        _INDEX_CACHE[topology] = index
    return index
