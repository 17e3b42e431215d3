"""Planar geometry: the pairwise Euclidean distance matrix."""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_distances"]


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
