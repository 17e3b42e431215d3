"""The lightweight estimation 4-tuple ``E`` (Section IV-E, Algorithm 2).

Each node ``u`` carries ``E_i(u)`` for the four quadrants ``Q_i(u)``: an
estimate of the remaining relay work (hop distance, or cycle-waiting time in
the duty-cycle system) from ``u`` to the *edge of the network* in that
quadrant.  The E-model scheduler (Eq. 10) then selects, among the greedy
colour classes, the colour containing the node with the **largest** relevant
estimate — "the longer the path in expectation, the earlier the relay must
be selected and initiated in the pipeline process".

Construction (Algorithm 2)
--------------------------
1.  Identify the network edge (convex hull + boundary construction; see
    :mod:`repro.network.boundary` for the documented substitution).
2.  Each edge node with no neighbour in quadrant ``i`` seeds ``E_i = 0``;
    every other entry starts at infinity.
3.  Relax ``E_i(u) = w(u, v) + min_{v ∈ Q_i(u) ∩ N(u)} E_i(v)`` until the
    fixpoint (Eq. 9 with ``w = 1`` in the synchronous system, Eq. 11 with
    the cycle-waiting-time weight in the duty-cycle system).
4.  Local-minimum repair: any node still at infinity whose quadrant ``i`` is
    empty becomes a zero seed, and the relaxation runs once more.

Because the quadrant successor relation is strictly monotone in one
coordinate (``Q_1`` neighbours have strictly larger x, ``Q_2`` strictly
larger y, ...), each relaxation is a single sweep over the nodes in sorted
coordinate order — O(n log n + m) per quadrant, and O(1) information
exchanges per node as Theorem 3 requires.  The sweeps read the neighbour
lists of the topology's cached :class:`~repro.network.quadrant.QuadrantIndex`
and the Eq. (10) scores its bitmasks, so no neighbour is classified twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

import numpy as np

from repro.dutycycle.cwt import expected_cwt
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.boundary import boundary_nodes
from repro.network.quadrant import QUADRANTS, quadrant_view
from repro.network.topology import WSNTopology

__all__ = ["EdgeEstimate", "build_edge_estimate"]


#: Per quadrant, the position column and sign of a sort key that puts every
#: quadrant-i neighbour of a node before the node itself (see module
#: docstring): descending x, descending y, ascending x, ascending y.
_SWEEP_KEY: dict[int, tuple[int, float]] = {1: (0, -1.0), 2: (1, -1.0), 3: (0, 1.0), 4: (1, 1.0)}


@dataclass(frozen=True)
class EdgeEstimate:
    """The computed 4-tuples ``E_i(u)`` plus bookkeeping for Eq. (10).

    Attributes
    ----------
    values:
        ``values[u][i-1]`` is ``E_i(u)``; entries are floats (hop counts in
        the synchronous system, expected slots in the duty-cycle system).
    mode:
        ``"sync"`` or ``"duty"`` (which weight was used).
    update_count:
        Total number of value updates performed during construction — the
        quantity Theorem 3 bounds by ``4 |N|``.
    """

    values: Mapping[int, tuple[float, float, float, float]]
    mode: Literal["sync", "duty"]
    update_count: int

    def value(self, node_id: int, quadrant: int) -> float:
        """``E_quadrant(node_id)``."""
        if quadrant not in QUADRANTS:
            raise ValueError(f"quadrant must be in {QUADRANTS}, got {quadrant}")
        return self.values[node_id][quadrant - 1]

    def node_score(
        self,
        topology: WSNTopology,
        node_id: int,
        covered: frozenset[int] | set[int] | int,
    ) -> float:
        """Largest estimate over quadrants where ``node_id`` still has work.

        Eq. (10) only compares estimates for quadrants containing uncovered
        neighbours (``N(u) ∩ Q_k(u) ∩ W̄ ≠ ∅``); with no such quadrant the
        node contributes ``-inf`` (it cannot be the bottleneck).  ``covered``
        is a node set or its bitmask (bit ``i`` is ``topology.node_ids[i]``).
        """
        if not isinstance(covered, int):
            covered = topology.mask_from_nodes(covered)
        row = topology.index_of(node_id)
        values = self.values[node_id]
        best = -math.inf
        for quadrant, masks in enumerate(quadrant_view(topology).masks):
            if masks[row] & ~covered:
                best = max(best, values[quadrant])
        return best

    def color_score(
        self,
        topology: WSNTopology,
        color: Iterable[int],
        covered: frozenset[int] | set[int] | int,
    ) -> float:
        """The colour's Eq.-(10) score: the max node score over its members."""
        if not isinstance(covered, int):
            covered = topology.mask_from_nodes(covered)
        scores = [self.node_score(topology, u, covered) for u in color]
        return max(scores, default=-math.inf)


def _edge_weight(
    mode: Literal["sync", "duty"],
    schedule: WakeupSchedule | None,
    weight: Literal["expected", "unit"],
) -> float:
    if mode == "sync" or weight == "unit":
        return 1.0
    assert schedule is not None
    return expected_cwt(schedule.rate)


def _relax(
    estimates: list[float],
    members: tuple[tuple[int, ...], ...],
    order: list[int],
    step: float,
) -> int:
    """One sweep of ``E_i(u) = step + min_{v ∈ Q_i(u) ∩ N(u)} E_i(v)``.

    Fills unset (infinite) entries only, visiting rows in ``order``, and
    returns the number of entries it set.
    """
    count = 0
    for row in order:
        if estimates[row] != math.inf:
            continue
        neighbours = members[row]
        if not neighbours:
            continue
        best = min([estimates[v] for v in neighbours])
        if best != math.inf:
            estimates[row] = step + best
            count += 1
    return count


def build_edge_estimate(
    topology: WSNTopology,
    schedule: WakeupSchedule | None = None,
    *,
    weight: Literal["expected", "unit"] = "expected",
    boundary: Iterable[int] | None = None,
) -> EdgeEstimate:
    """Run Algorithm 2 and return the resulting :class:`EdgeEstimate`.

    Parameters
    ----------
    topology:
        The network.
    schedule:
        When given, the duty-cycle weights of Eq. (11) are used (the
        per-hop cost becomes the expected cycle waiting time); otherwise
        the synchronous Eq. (9) applies.
    weight:
        ``"expected"`` uses the analytic expectation ``(r + 1) / 2`` as the
        proactive CWT weight; ``"unit"`` forces hop counting even in the
        duty-cycle system (used by the weight-choice ablation).
    boundary:
        Override the network-edge node set (defaults to
        :func:`repro.network.boundary.boundary_nodes`).
    """
    mode: Literal["sync", "duty"] = "duty" if schedule is not None else "sync"
    step = _edge_weight(mode, schedule, weight)
    edge_nodes = frozenset(boundary) if boundary is not None else boundary_nodes(topology)
    on_edge = [u in edge_nodes for u in topology.node_ids]
    index = quadrant_view(topology)
    positions = topology.positions

    # The quadrants never read each other's entries, so each runs both
    # phases on its own: the values and the update total do not depend on
    # the order in which quadrants are visited.
    columns: list[list[float]] = []
    updates = 0
    for quadrant in QUADRANTS:
        members = index.rows[quadrant - 1]
        empty = index.empty[quadrant - 1].tolist()
        axis, sign = _SWEEP_KEY[quadrant]
        order = np.argsort(sign * positions[:, axis], kind="stable").tolist()
        estimates = [math.inf] * topology.num_nodes
        # Phase 1: seeds restricted to the network edge, then one full sweep.
        for row, is_empty in enumerate(empty):
            if is_empty and on_edge[row]:
                estimates[row] = 0.0
                updates += 1
        updates += _relax(estimates, members, order, step)
        # Phase 2 (local-minimum repair): interior nodes with an empty
        # quadrant become seeds, then one more sweep resolves the rest.
        for row, is_empty in enumerate(empty):
            if is_empty and estimates[row] == math.inf:
                estimates[row] = 0.0
                updates += 1
        updates += _relax(estimates, members, order, step)
        columns.append(estimates)

    values = {u: entry for u, entry in zip(topology.node_ids, zip(*columns))}
    return EdgeEstimate(values=values, mode=mode, update_count=updates)
