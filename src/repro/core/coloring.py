"""Colour schemes over the broadcast frontier (Section IV-A, Algorithm 1).

A *colour* of the current coverage ``W`` is a set of relay candidates that
can transmit concurrently without interfering at any uncovered node
(Eq. 1).  Two colour providers are implemented:

* :func:`greedy_color_classes` — the extended greedy colour scheme of
  Algorithm 1 / Eq. (2): candidates are sorted by the number of uncovered
  receivers and packed greedily into colour classes ``C_1 .. C_λ``.  Unlike
  the classical per-BFS-layer colouring, the candidate pool is the *whole*
  frontier of ``W`` (every covered node with an uncovered neighbour), which
  is what enables the pipeline behaviour the paper exploits.
* :func:`enumerate_color_classes` — every *maximal* admissible colour
  (maximal independent sets of the conflict graph), used by the OPT target
  of Eq. (1)/(5).  Exponential in the worst case; a cap keeps the OPT
  policy usable on the paper-scale deployments (documented in
  docs/design.md, "Colour-class cap").

The duty-cycle variants (Eq. 3) are obtained by passing the set of nodes
awake at the current slot via ``awake``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence
from weakref import WeakKeyDictionary

from repro.network.topology import WSNTopology

__all__ = [
    "frontier_candidates",
    "greedy_color_classes",
    "cached_greedy_color_classes",
    "enumerate_color_classes",
    "ColorScheme",
    "conflict_graph",
]


def frontier_candidates(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[int]:
    """Relay candidates: covered (and awake) nodes with uncovered neighbours.

    These are the nodes satisfying constraints 1-2 of Eq. (1) (and the
    availability constraint of Eq. (3) when ``awake`` is given).  The result
    is sorted by (descending number of uncovered receivers, ascending node
    id) — the order step 3 of Algorithm 1 prescribes, with the id as a
    deterministic tie-break.
    """
    covered = frozenset(covered)
    pool = covered if awake is None else (covered & frozenset(awake))
    uncovered_mask = topology.full_mask & ~topology.mask_from_nodes(covered)
    weighted = []
    for u in pool:
        gain = (topology.neighbor_mask(u) & uncovered_mask).bit_count()
        if gain:
            weighted.append((-gain, u))
    weighted.sort()
    return [u for _, u in weighted]


def conflict_graph(
    topology: WSNTopology,
    candidates: Sequence[int],
    covered: frozenset[int] | set[int],
) -> dict[int, set[int]]:
    """Adjacency of the conflict graph among ``candidates``.

    Edge ``u - v`` iff the two candidates share an uncovered neighbour
    (constraint 3 of Eq. 1 violated when transmitting together).
    """
    covered = frozenset(covered)
    uncovered_mask = topology.full_mask & ~topology.mask_from_nodes(covered)
    adjacency: dict[int, set[int]] = {u: set() for u in candidates}
    ordered = list(candidates)
    masks = [topology.neighbor_mask(u) & uncovered_mask for u in ordered]
    for i, u in enumerate(ordered):
        mask_u = masks[i]
        for j in range(i + 1, len(ordered)):
            if mask_u & masks[j]:
                v = ordered[j]
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def greedy_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[frozenset[int]]:
    """Algorithm 1: the extended greedy colour scheme.

    Returns the colour classes ``[C_1, ..., C_λ]`` in label order.  Every
    candidate appears in exactly one class; members of one class are
    pairwise interference-free with respect to the *current* ``W``; and a
    candidate is pushed to a later class only because it conflicts with an
    earlier one (the construction of Eq. 2).

    Returns an empty list when no candidate exists (either ``W`` already
    covers every node, or — in the duty-cycle system — no frontier node is
    awake at this slot).
    """
    covered = frozenset(covered)
    candidates = frontier_candidates(topology, covered, awake)
    if not candidates:
        return []

    conflicts = conflict_graph(topology, candidates, covered)
    classes: list[list[int]] = []
    assigned: set[int] = set()
    remaining = list(candidates)
    while remaining:
        current: list[int] = []
        current_set: set[int] = set()
        still_remaining: list[int] = []
        for u in remaining:
            if conflicts[u] & current_set:
                still_remaining.append(u)
            else:
                current.append(u)
                current_set.add(u)
                assigned.add(u)
        classes.append(current)
        remaining = still_remaining
    return [frozenset(c) for c in classes]


# Greedy classes keyed on (covered, awake) per topology; the classes depend
# on nothing else.  The WeakKeyDictionary drops a topology's entries with the
# topology itself; the per-topology cap bounds the worst case (every slot a
# distinct awake set) without evicting the hot single-topology reuse.
_GREEDY_CLASS_CACHE: WeakKeyDictionary[WSNTopology, dict] = WeakKeyDictionary()
_GREEDY_CLASS_CACHE_CAP = 4096


def cached_greedy_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[frozenset[int]]:
    """Memoized :func:`greedy_color_classes` (identical result, shared work).

    The decision-level colourings of the time-counter and E-model policies
    are pure in ``(topology, covered, awake)``; caching them lets the
    policies of one cell, which broadcast over the same topology, reuse
    each other's colourings.  On the paper duty-cycle cell (r=50, 100
    nodes, seed 2012, repetition 0) every one of the E-model's 23 lookups
    hits a colouring G-OPT computed; on the synchronous 300-node cell 2 of
    its 8 do.  Callers must treat the returned list as immutable.
    """
    per_topology = _GREEDY_CLASS_CACHE.get(topology)
    if per_topology is None:
        per_topology = _GREEDY_CLASS_CACHE[topology] = {}
    key = (
        frozenset(covered),
        None if awake is None else frozenset(awake),
    )
    classes = per_topology.get(key)
    if classes is None:
        classes = greedy_color_classes(topology, covered, awake)
        if len(per_topology) >= _GREEDY_CLASS_CACHE_CAP:
            per_topology.clear()
        per_topology[key] = classes
    return classes


def _bron_kerbosch_independent_sets(
    vertices: Sequence[int],
    conflicts: dict[int, set[int]],
    limit: int | None,
) -> list[frozenset[int]]:
    """All maximal independent sets of the conflict graph (maximal cliques of
    its complement), via Bron-Kerbosch with pivoting on the complement graph.
    """
    vertex_set = set(vertices)
    complement = {
        u: (vertex_set - conflicts[u] - {u}) for u in vertices
    }
    results: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> bool:
        """Returns False when the enumeration limit is reached."""
        if not p and not x:
            results.append(frozenset(r))
            return limit is None or len(results) < limit
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda u: len(complement[u] & p))
        for v in sorted(p - complement[pivot]):
            if not expand(r | {v}, p & complement[v], x & complement[v]):
                return False
            p = p - {v}
            x = x | {v}
        return True

    expand(set(), set(vertices), set())
    return results


def enumerate_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
    *,
    max_classes: int | None = None,
) -> list[frozenset[int]]:
    """Every maximal admissible colour of ``W`` (Eq. 1), for the OPT target.

    A colour here is a maximal set of frontier candidates that is pairwise
    interference-free; maximality loses no generality because adding a
    non-conflicting transmitter never hurts (coverage is monotone).  When
    ``max_classes`` is given, enumeration stops after that many sets and the
    greedy classes are merged in (so the greedy answer is always among the
    candidates) — this is the documented cap that keeps OPT tractable on
    300-node deployments.
    """
    covered = frozenset(covered)
    candidates = frontier_candidates(topology, covered, awake)
    if not candidates:
        return []
    conflicts = conflict_graph(topology, candidates, covered)
    sets = _bron_kerbosch_independent_sets(candidates, conflicts, max_classes)
    if max_classes is not None:
        for greedy_class in greedy_color_classes(topology, covered, awake):
            if greedy_class not in sets:
                sets.append(greedy_class)
    # Deterministic order: larger classes (more parallel relays) first.
    sets.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return sets


@dataclass(frozen=True)
class ColorScheme:
    """A configurable colour provider shared by the policies and the counter.

    Attributes
    ----------
    mode:
        ``"greedy"`` — Algorithm 1 classes (Eq. 2/3);
        ``"exhaustive"`` — all maximal admissible colours (Eq. 1).
    max_classes:
        Enumeration cap for the exhaustive mode (``None`` = unlimited).
    """

    mode: Literal["greedy", "exhaustive"] = "greedy"
    max_classes: int | None = None

    def color_classes(
        self,
        topology: WSNTopology,
        covered: frozenset[int] | set[int],
        awake: Iterable[int] | None = None,
    ) -> list[frozenset[int]]:
        """Return the candidate colours for the current state."""
        if self.mode == "greedy":
            return greedy_color_classes(topology, covered, awake)
        if self.mode == "exhaustive":
            return enumerate_color_classes(
                topology, covered, awake, max_classes=self.max_classes
            )
        raise ValueError(f"unknown colour scheme mode {self.mode!r}")

    def num_colors(
        self,
        topology: WSNTopology,
        covered: frozenset[int] | set[int],
        awake: Iterable[int] | None = None,
    ) -> int:
        """``λ(W)`` (or ``λ(W, t)``) for reporting purposes."""
        return len(greedy_color_classes(topology, covered, awake))
