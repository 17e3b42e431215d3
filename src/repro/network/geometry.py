"""Planar geometry helpers: distances and a from-scratch convex hull.

The paper identifies the *edge of the network* by starting the boundary
construction of [6] from any node located on the convex hull [3] of the
deployment.  The hull is implemented here directly (Andrew's monotone chain)
instead of pulling in scipy's Qhull wrapper, so the network substrate remains
dependency-light and the algorithm is easy to audit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["euclidean_distance", "cross", "convex_hull", "pairwise_distances"]

Point = tuple[float, float]


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Return the Euclidean distance between two 2-D points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """2-D cross product of vectors OA and OB.

    Positive when O->A->B makes a counter-clockwise turn, negative for a
    clockwise turn, and zero when the three points are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Return the convex hull of ``points`` in counter-clockwise order.

    Andrew's monotone chain algorithm, O(n log n).  Collinear points on the
    hull boundary are *excluded* (only extreme vertices are returned), which
    matches the usual definition of hull vertices.  Duplicate input points
    are tolerated.

    Returns the input (deduplicated, sorted) when fewer than three distinct
    points exist.
    """
    unique = sorted(set((float(x), float(y)) for x, y in points))
    if len(unique) <= 2:
        return unique

    lower: list[Point] = []
    for point in unique:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], point) <= 0:
            lower.pop()
        lower.append(point)

    upper: list[Point] = []
    for point in reversed(unique):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], point) <= 0:
            upper.pop()
        upper.append(point)

    # The last point of each list is the first point of the other list.
    return lower[:-1] + upper[:-1]


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Return the dense (n, n) Euclidean distance matrix for 2-D positions.

    Vectorised with broadcasting, one coordinate at a time: ``dx*dx + dy*dy``
    is squared, summed and square-rooted in place in one ``(n, n)`` buffer,
    which gives the same bits as summing the squared ``(n, n, 2)`` deltas
    over the last axis without building them.  Used by the UDG
    construction, which only needs a boolean threshold on this matrix.  For
    the network sizes the paper evaluates (<= 300 nodes) the dense matrix
    is far cheaper than any spatial index.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(
            f"positions must have shape (n, 2), got {positions.shape!r}"
        )
    x, y = positions[:, 0], positions[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)
