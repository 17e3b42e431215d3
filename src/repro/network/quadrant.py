"""Quadrant partition ``Q_i(u)`` used by the E-model (Section IV-E).

The paper's lightweight estimation attaches a 4-tuple ``E_1(u)..E_4(u)`` to
every node, one entry per quadrant with ``u`` as the origin.  The partition
convention used here is the usual counter-clockwise quadrant numbering with
half-open boundaries so that every neighbour falls in exactly one quadrant:

* ``Q_1(u)``: ``dx > 0  and dy >= 0``   (east to north, excluding north)
* ``Q_2(u)``: ``dx <= 0 and dy > 0``    (north to west, excluding west)
* ``Q_3(u)``: ``dx < 0  and dy <= 0``   (west to south, excluding south)
* ``Q_4(u)``: ``dx >= 0 and dy < 0``    (south to east, excluding east)

This module is the one owner of that convention.  :func:`quadrant_index`
classifies a single point; :class:`QuadrantIndex` classifies every
neighbourhood of a topology at once and is what the E-model, the
network-edge detection and :func:`quadrant_neighbors` read.

A neighbour at exactly ``u``'s position belongs to no quadrant.  Nothing
upstream prevents it — :func:`repro.network.deployment.deploy_uniform`
draws positions independently and does not reject repeats, and
hand-written topologies may place two nodes on one spot — so the index
build rejects it with a :class:`ValueError` naming both node ids.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from repro.network.topology import WSNTopology

__all__ = [
    "QUADRANTS",
    "QuadrantIndex",
    "quadrant_index",
    "quadrant_neighbors",
    "quadrant_partition",
    "quadrant_view",
]

#: The four quadrant labels, in the order used by the 4-tuple ``E``.
QUADRANTS: tuple[int, int, int, int] = (1, 2, 3, 4)


def _quadrant_tests(dx, dy):
    """Membership of offset ``(dx, dy)`` in ``Q_1..Q_4``, in label order.

    Works elementwise on numpy arrays and on plain floats alike, so the
    scalar and the whole-topology classification share one definition.
    """
    return (
        (dx > 0) & (dy >= 0),
        (dx <= 0) & (dy > 0),
        (dx < 0) & (dy <= 0),
        (dx >= 0) & (dy < 0),
    )


def quadrant_index(origin: tuple[float, float], point: tuple[float, float]) -> int:
    """Return the quadrant (1-4) of ``point`` relative to ``origin``.

    Raises
    ------
    ValueError
        If ``point`` coincides with ``origin`` (no quadrant is defined).
    """
    dx = point[0] - origin[0]
    dy = point[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("point coincides with origin; quadrant undefined")
    return 1 + _quadrant_tests(dx, dy).index(True)


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
        adjacency = topology.adjacency_matrix
        positions = topology.positions
        # dx[r, c] is the offset of row c's position seen from row r.
        dx = positions[None, :, 0] - positions[:, None, 0]
        dy = positions[None, :, 1] - positions[:, None, 1]
        coincident = np.argwhere(adjacency & (dx == 0.0) & (dy == 0.0))
        if len(coincident):
            ids = topology.node_ids
            u, v = (ids[int(r)] for r in coincident[0])
            raise ValueError(
                f"nodes {u} and {v} are neighbours at the same position; "
                "quadrant undefined"
            )
        n = topology.num_nodes
        masks: list[tuple[int, ...]] = []
        rows: list[tuple[tuple[int, ...], ...]] = []
        empty: list[np.ndarray] = []
        for members in _quadrant_tests(dx, dy):
            members &= adjacency
            packed = np.packbits(members, axis=1, bitorder="little")
            width = packed.shape[1]
            buffer = packed.tobytes()
            masks.append(
                tuple(
                    int.from_bytes(buffer[r * width : (r + 1) * width], "little")
                    for r in range(n)
                )
            )
            counts = members.sum(axis=1)
            columns = np.nonzero(members)[1].tolist()
            ends = np.cumsum(counts).tolist()
            starts = [0, *ends[:-1]]
            rows.append(tuple(tuple(columns[s:e]) for s, e in zip(starts, ends)))
            empty.append(counts == 0)
        self.masks: tuple[tuple[int, ...], ...] = tuple(masks)
        self.rows: tuple[tuple[tuple[int, ...], ...], ...] = tuple(rows)
        self.empty: tuple[np.ndarray, ...] = tuple(empty)


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


def quadrant_neighbors(
    topology: WSNTopology, node_id: int, quadrant: int
) -> frozenset[int]:
    """``N(u) ∩ Q_i(u)``: neighbours of ``node_id`` lying in ``quadrant``."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant}")
    mask = quadrant_view(topology).masks[quadrant - 1][topology.index_of(node_id)]
    return topology.nodes_from_mask(mask)


def quadrant_partition(
    topology: WSNTopology, node_id: int, candidates: Iterable[int] | None = None
) -> dict[int, frozenset[int]]:
    """Partition ``candidates`` (default: all neighbours) into the 4 quadrants.

    Raises
    ------
    ValueError
        If a candidate is not a neighbour of ``node_id``.
    """
    pool = topology.neighbor_mask(node_id)
    if candidates is not None:
        wanted = topology.mask_from_nodes(candidates)
        if wanted & ~pool:
            stray = sorted(topology.nodes_from_mask(wanted & ~pool))
            raise ValueError(f"candidates {stray} are not neighbours of node {node_id}")
        pool = wanted
    row = topology.index_of(node_id)
    masks = quadrant_view(topology).masks
    return {
        q: topology.nodes_from_mask(masks[q - 1][row] & pool) for q in QUADRANTS
    }
