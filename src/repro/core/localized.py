"""Localized colour selection (the paper's §VII future-work direction).

The schedulers of Section IV are *centralised*: the greedy colour scheme is
applied to the whole frontier and a single colour is selected per
round/slot, which presumes a coordinator (or an off-line computation) that
sees the entire coverage state.  The paper's conclusion names a "localized
color scheme and its selection" as the next step towards a reliable and
scalable protocol.

This module implements that direction with a *local contention* rule that
needs only information a real node already has after the beaconing exchange
of Section III (its 2-hop neighbourhood, the E-tuples of those neighbours,
and which neighbours hold the message):

* every relay candidate ``u`` (covered/awake node with an uncovered
  neighbour) computes its priority ``(E-score, #uncovered receivers, -id)``;
* the candidates elect a maximal interference-free transmitter set by a
  priority-ordered local elimination: a candidate transmits iff no
  *conflicting* candidate with a higher priority has already claimed the
  slot.  This is the classical distributed greedy-MIS election (Luby-style,
  with the priority as the random rank): it needs only the candidate's
  2-hop neighbourhood, the neighbours' E-tuples learned during beaconing,
  and a constant number of in-slot signalling exchanges.

The winner set is interference-free by construction (a node only claims the
slot when every conflicting higher-priority candidate has withdrawn), it is
*maximal* (every losing candidate conflicts with some winner), and it always
contains the highest-priority candidate, so the broadcast progresses every
round/slot in which the frontier is awake.  Compared with the centralised
rule — one colour per round, chosen with global knowledge — the localized
election typically fires several independent regions of the frontier at
once, trading the global optimisation of ``M`` for purely local decisions;
the localized-vs-centralised ablation benchmark quantifies that trade-off.
"""

from __future__ import annotations

from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import frontier_candidates
from repro.core.estimation import EdgeEstimate
from repro.core.policies import EModelPolicy
from repro.network.interference import has_conflict
from repro.network.topology import WSNTopology

__all__ = ["LocalizedEModelPolicy", "local_contention_winners"]


def local_contention_winners(
    topology: WSNTopology,
    covered: frozenset[int],
    candidates: list[int],
    estimate: EdgeEstimate,
) -> frozenset[int]:
    """The candidates that win the local contention (see module docstring).

    The election is the priority-ordered greedy maximal independent set of
    the conflict graph: candidates are considered from the highest priority
    downwards and claim the slot unless a conflicting candidate already did.
    The priority is totally ordered (the node id breaks every tie), so the
    result is deterministic; it is interference-free, maximal, and non-empty
    whenever ``candidates`` is non-empty.
    """

    covered_mask = topology.mask_from_nodes(covered)

    def priority(node: int) -> tuple[float, int, int]:
        return (
            estimate.node_score(topology, node, covered_mask),
            len(topology.uncovered_neighbors(node, covered)),
            -node,
        )

    ordered = sorted(candidates, key=priority, reverse=True)
    winners: list[int] = []
    for node in ordered:
        if all(not has_conflict(topology, node, winner, covered) for winner in winners):
            winners.append(node)
    return frozenset(winners)


class LocalizedEModelPolicy(EModelPolicy):
    """Distributed E-model scheduling via 2-hop local contention.

    Takes the E-model's ``weight`` option: the weighting of the asynchronous
    E-tuples (``"expected"`` or ``"unit"``), forwarded to
    :func:`repro.core.estimation.build_edge_estimate`.

    Notes
    -----
    The policy intentionally reuses the same proactive E-tuples (and their
    binding) as :class:`repro.core.policies.EModelPolicy`; only the
    *selection* differs (local contention instead of picking one global
    colour), so comparing the two isolates the cost of decentralisation.
    """

    name = "localized-E"

    def _select(self, state: BroadcastState, estimate: EdgeEstimate) -> Advance | None:
        awake = None
        if state.schedule is not None:
            awake = state.schedule.awake_nodes(state.covered, state.time)
        candidates = frontier_candidates(state.topology, state.covered, awake)
        if not candidates:
            return None
        winners = local_contention_winners(state.topology, state.covered, candidates, estimate)
        return Advance.from_color(
            state.topology,
            state.covered,
            winners,
            state.time,
            color_index=1,
            num_colors=len(candidates),
            note=self.name,
        )
