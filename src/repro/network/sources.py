"""Seeded source placement for multi-source broadcast workloads.

A multi-source broadcast starts ``k`` concurrent wavefronts, one per
message; *where* those messages originate shapes how hard the workload is
(far-apart wavefronts barely meet, co-located ones contend for every slot).
This module is the single registry of placement strategies, shared by the
experiment stack (``SweepConfig.source_placement``) and the CLI
(``--source-placement``):

* ``"random"`` — ``k`` distinct nodes drawn uniformly from a dedicated
  seeded stream (the default; matches the paper's random-source habit);
* ``"spread"`` — a farthest-point traversal on hop distances, so wavefronts
  start as far apart as the deployment allows (minimal contention);
* ``"corner"`` — sources snap to the corners of the deployment area (then
  the centre and the side midpoints for ``k > 4``), the classic
  stress-from-the-rim workload (wavefronts collide mid-network).

Determinism contract
--------------------
Every strategy is a pure function of ``(topology, k, seed, anchor)``:
``"random"`` consumes only the RNG derived from ``seed``, and ``"spread"`` /
``"corner"`` consume no randomness at all (ties break on node id).  The
sweep runner derives the seed per cell (``derive_seed(cell_seed,
"multi-source")``), so records are bit-identical for any worker count and
either engine backend.  When an ``anchor`` is given (the runner passes the
deployment's eccentricity-vetted source), it is always ``sources[0]`` and
the strategy places the remaining ``k - 1``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = ["SOURCE_PLACEMENTS", "placement_names", "select_sources"]


def _place_random(
    topology: WSNTopology,
    k: int,
    seed: int | None,
    area_side: float | None,
    chosen: list[int],
) -> list[int]:
    """Draw the remaining sources uniformly without replacement."""
    rng = make_rng(seed)
    pool = sorted(set(topology.node_ids) - set(chosen))
    picks = rng.choice(len(pool), size=k - len(chosen), replace=False)
    chosen.extend(pool[int(i)] for i in picks)
    return chosen


def _place_spread(
    topology: WSNTopology,
    k: int,
    seed: int | None,
    area_side: float | None,
    chosen: list[int],
) -> list[int]:
    """Farthest-point traversal: maximise the minimum hop distance."""
    if not chosen:
        # Deterministic anchor: the lowest node id (no RNG on this path).
        chosen.append(min(topology.node_ids))
    # Hop-matrix rows with unreachable pairs at infinity; ``min_hops`` is the
    # min hop distance from every node to the chosen set, updated per pick.
    hops = topology.hop_matrix.astype(float)
    hops[hops < 0] = np.inf
    rows = [topology.index_of(s) for s in chosen]
    min_hops = hops[rows].min(axis=0).tolist()
    ids = topology.node_ids
    while len(chosen) < k:
        best = max(
            (i for i, u in enumerate(ids) if u not in chosen),
            key=lambda i: (min_hops[i], -ids[i]),
        )
        chosen.append(ids[best])
        min_hops = np.minimum(min_hops, hops[best]).tolist()
    return chosen


def _place_corner(
    topology: WSNTopology,
    k: int,
    seed: int | None,
    area_side: float | None,
    chosen: list[int],
) -> list[int]:
    """Snap sources to the area corners (then centre and side midpoints)."""
    positions = topology.positions
    if area_side is not None:
        lo_x = lo_y = 0.0
        hi_x = hi_y = float(area_side)
    else:
        lo_x, lo_y = positions.min(axis=0)
        hi_x, hi_y = positions.max(axis=0)
    mid_x, mid_y = (lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0
    anchors = [
        (lo_x, lo_y),
        (hi_x, hi_y),
        (hi_x, lo_y),
        (lo_x, hi_y),
        (mid_x, mid_y),
        (mid_x, lo_y),
        (hi_x, mid_y),
        (mid_x, hi_y),
        (lo_x, mid_y),
    ]
    ids = topology.node_ids
    row = {u: i for i, u in enumerate(ids)}
    anchor_index = 0
    while len(chosen) < k:
        if anchor_index < len(anchors):
            ax, ay = anchors[anchor_index]
            anchor_index += 1
        else:
            # More sources than anchor points: fall back to the centre (the
            # nearest-unused rule below still yields distinct nodes).
            ax, ay = mid_x, mid_y
        distances = np.hypot(positions[:, 0] - ax, positions[:, 1] - ay)
        taken = set(chosen)
        best = min(
            (u for u in ids if u not in taken),
            key=lambda u: (float(distances[row[u]]), u),
        )
        chosen.append(best)
    return chosen


#: Registry of placement strategies: ``name -> place(topology, k, seed,
#: area_side, chosen)`` extending ``chosen`` (the already-fixed prefix) to
#: ``k`` distinct node ids.
SOURCE_PLACEMENTS: dict[
    str, Callable[[WSNTopology, int, int | None, float | None, list[int]], list[int]]
] = {
    "random": _place_random,
    "spread": _place_spread,
    "corner": _place_corner,
}


def placement_names() -> list[str]:
    """The registered source-placement names, sorted."""
    return sorted(SOURCE_PLACEMENTS)


def select_sources(
    topology: WSNTopology,
    k: int,
    *,
    placement: str = "random",
    seed: int | None = 0,
    area_side: float | None = None,
    anchor: int | None = None,
) -> tuple[int, ...]:
    """Select ``k`` distinct broadcast sources with a named strategy.

    Parameters
    ----------
    topology:
        The deployed network.
    k:
        Number of concurrent messages (``1 <= k <= num_nodes``).
    placement:
        A strategy from :data:`SOURCE_PLACEMENTS`.
    seed:
        Seed of the dedicated placement stream (only ``"random"`` draws
        from it; the other strategies are fully deterministic).
    area_side:
        Deployment area side for ``"corner"`` (defaults to the positions'
        bounding box).
    anchor:
        Optional pre-selected source, always returned first — the sweep
        runner passes the deployment's eccentricity-vetted source so the
        ``k = 1`` workload reproduces the single-source records exactly.
    """
    require(k >= 1, f"need at least one source, got {k}")
    require(
        k <= topology.num_nodes,
        f"cannot place {k} sources on {topology.num_nodes} nodes",
    )
    try:
        place = SOURCE_PLACEMENTS[placement]
    except KeyError:
        raise ValueError(
            f"unknown source placement {placement!r}; expected one of "
            f"{placement_names()}"
        ) from None
    chosen: list[int] = []
    if anchor is not None:
        require(anchor in topology, f"unknown anchor source {anchor}")
        chosen.append(int(anchor))
    if len(chosen) < k:
        chosen = place(topology, k, seed, area_side, chosen)
    sources = tuple(int(u) for u in chosen[:k])
    assert len(set(sources)) == k
    return sources
