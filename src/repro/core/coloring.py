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

Both providers are thin frozenset wrappers over one mask-native core,
:meth:`ColorScheme.color_masks`, which takes ``(covered, pool)`` as int
bitmasks (bit ``i`` is ``topology.node_ids[i]``) and returns
``(colour, receivers)`` mask pairs.  The time counter's search calls it
through its per-broadcast state memo (docs/design.md, "Search state"); the
E-model and largest-first call it directly, once per decision.  Nothing in
this module caches a colouring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from repro.network.topology import WSNTopology

__all__ = [
    "frontier_candidates",
    "greedy_color_classes",
    "enumerate_color_classes",
    "ColorScheme",
    "frontier_mask",
    "greedy_masks",
    "lex_order_key",
]

#: A colour in the bitmask search state: ``(colour mask, receivers mask)``,
#: bit ``i`` standing for ``topology.node_ids[i]``.
ColorMasks = tuple[int, int]


def frontier_mask(topology: WSNTopology, covered: int) -> int:
    """Covered nodes with an uncovered neighbour, as a bitmask.

    ``covered & OR(N(v) for uncovered v)``, walked from whichever side of
    the cut is smaller.
    """
    neighbors = topology.neighbor_masks
    uncovered = topology.full_mask & ~covered
    frontier = 0
    if uncovered.bit_count() < covered.bit_count():
        rest = uncovered
        while rest:
            low = rest & -rest
            frontier |= neighbors[low.bit_length() - 1]
            rest ^= low
        return covered & frontier
    rest = covered
    while rest:
        low = rest & -rest
        if neighbors[low.bit_length() - 1] & uncovered:
            frontier |= low
        rest ^= low
    return frontier


#: ``_BIT_REVERSED_BYTES[b]`` is the byte ``b`` with its eight bits reversed.
_BIT_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def lex_order_key(mask: int, width: int) -> int:
    """Sort key ordering equal-popcount masks as ``tuple(sorted(ids))`` does.

    For two sets of one size, the sorted id tuples first differ at the
    smallest id in exactly one of them; the set holding it sorts first.
    Reversing ``width`` bits makes that lowest differing bit the highest,
    so the negated reversal orders the masks the same way.  Sets of
    different sizes are not ordered as tuples: callers sort by size first.
    The reversal reverses each little-endian byte through a table and reads
    the bytes back big-endian, which reverses ``8 * ceil(width / 8)`` bits;
    the shift drops the padding.
    """
    size = (width + 7) // 8
    reversed_bytes = mask.to_bytes(size, "little").translate(_BIT_REVERSED_BYTES)
    return -(int.from_bytes(reversed_bytes, "big") >> (8 * size - width))


def _candidate_masks(
    topology: WSNTopology, covered: int, pool: int
) -> list[tuple[int, int, int]]:
    """``(-gain, bit, uncovered-neighbour mask)`` of every relay candidate.

    Candidates are the nodes of ``pool`` with an uncovered neighbour, in the
    order step 3 of Algorithm 1 prescribes (most uncovered receivers first,
    then ascending node id, which is ascending bit).
    """
    neighbors = topology.neighbor_masks
    uncovered = topology.full_mask & ~covered
    if uncovered.bit_count() < pool.bit_count():
        pool &= frontier_mask(topology, covered)
    weighted = []
    while pool:
        low = pool & -pool
        bit = low.bit_length() - 1
        pool ^= low
        gain = neighbors[bit] & uncovered
        if gain:
            weighted.append((-gain.bit_count(), bit, gain))
    weighted.sort()
    return weighted


def greedy_masks(candidates: list[ColorMasks]) -> list[ColorMasks]:
    """Algorithm 1's first-fit packing of ``(node bit, uncovered neighbours)``.

    Candidates are taken in the given order; each joins the first class it
    does not conflict with, or opens a new one.  A candidate conflicts with
    a class iff its uncovered neighbours meet the union of the members'
    uncovered neighbours (the pairwise test of Eq. 1, constraint 3, folded
    into one AND), and that union is the class's receivers.  One pass gives
    the classes Algorithm 1 fills one at a time: when a candidate is
    reached, every class already holds exactly the earlier candidates that
    class-by-class filling would have put there.  A class is an immutable
    ``(colour, receivers)`` pair, rebuilt when a candidate joins it and
    opened as the candidate's own pair, so the one- to three-candidate
    lists of most duty-cycle decisions build nothing else.
    """
    classes: list[ColorMasks] = []
    for pair in candidates:
        gain = pair[1]
        k = 0
        for color, receivers in classes:
            if not gain & receivers:
                classes[k] = (color | pair[0], receivers | gain)
                break
            k += 1
        else:
            classes.append(pair)
    return classes


def _greedy_pack(weighted: list[tuple[int, int, int]]) -> list[ColorMasks]:
    """:func:`greedy_masks` over :func:`_candidate_masks` output."""
    return greedy_masks([(1 << bit, gain) for _, bit, gain in weighted])


def _clear_masks(topology: WSNTopology, candidates: int, gains: Iterable[int]) -> list[int]:
    """Each candidate's non-conflict mask, given its uncovered-neighbour mask.

    Two candidates conflict iff their uncovered neighbourhoods meet, that
    is iff one is a neighbour of an uncovered node the other reaches.  So
    the candidates clear of ``u`` are ``candidates & ~OR(N(w) for w in
    gain_u)``, one OR per receiver instead of one AND per candidate pair.
    A candidate with receivers is never clear of itself.
    """
    neighbors = topology.neighbor_masks
    clear = []
    for gain in gains:
        reach = 0
        while gain:
            low = gain & -gain
            reach |= neighbors[low.bit_length() - 1]
            gain ^= low
        clear.append(candidates & ~reach)
    return clear


def _enumerated_masks(
    topology: WSNTopology,
    weighted: list[tuple[int, int, int]],
    max_classes: int | None,
) -> list[ColorMasks]:
    """Every maximal admissible colour (capped), in canonical order.

    The maximal independent sets of the conflict graph (maximal cliques of
    its complement), by Bron-Kerbosch with pivoting, capped at
    ``max_classes`` sets with the greedy classes merged in.  Which sets a
    capped run finds first is part of OPT's records, and it rests on the
    pivot: the first strict maximum in ``P | X`` iteration order.  ``P``,
    ``X`` and each complement set are therefore Python sets of node ids,
    and the set expressions below are part of the definition: a set's
    iteration order follows its hash-table layout, which depends on how the
    set was built.  Everything the output depends on only through content
    runs on int masks: the non-conflict masks (:func:`_clear_masks`), the
    pivot key ``popcount(clear[u] & P)``, the branch list (the ascending
    bits of ``P & ~clear[pivot]``; bit order is id order) and the
    ``(colour, receivers)`` accumulators.  A vertex's complement set
    ``vertex_set - conflicts[v] - {v}`` is built when the search first
    branches on it, so a capped run builds only the sets it reads.  Set
    difference reads ``conflicts[v]`` only through its size and membership,
    so it is built as the ids whose gain meets ``v``'s: the same contents as
    the candidates outside ``clear[v]`` other than ``v``, without a mask to
    id walk (docs/design.md, "Colour-class cap").
    """
    ids = topology.node_ids
    order = [ids[bit] for _, bit, _ in weighted]
    candidates = 0
    for _, bit, _ in weighted:
        candidates |= 1 << bit
    gains = [gain for _, _, gain in weighted]
    clear = dict(zip(order, _clear_masks(topology, candidates, gains)))
    gain_of = dict(zip(order, gains))
    vertex_set = set(order)
    complement: dict[int, set[int]] = {}
    colors: list[ColorMasks] = []

    def expand(color: int, receivers: int, p: set[int], x: set[int], p_mask: int) -> bool:
        """Returns False when the enumeration limit is reached."""
        if not p_mask:
            if x:
                return True  # not maximal, and nothing to branch on
            colors.append((color, receivers))
            return max_classes is None or len(colors) < max_classes
        pivot = max(p | x, key=lambda u: (clear[u] & p_mask).bit_count())
        branch = p_mask & ~clear[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = ids[low.bit_length() - 1]
            complement_v = complement.get(v)
            if complement_v is None:
                gain_v = gain_of[v]
                conflicts_v = {u for u, gain in gain_of.items() if gain & gain_v and u != v}
                complement_v = complement[v] = vertex_set - conflicts_v - {v}
            if not expand(
                color | low,
                receivers | gain_of[v],
                p & complement_v,
                x & complement_v,
                p_mask & clear[v],
            ):
                return False
            p = p - {v}
            x = x | {v}
            p_mask ^= low
        return True

    expand(0, 0, set(order), set(), candidates)
    if max_classes is not None:
        seen = {color for color, _ in colors}
        colors.extend(pair for pair in _greedy_pack(weighted) if pair[0] not in seen)
    # Deterministic order: larger classes (more parallel relays) first.
    width = topology.num_nodes
    colors.sort(key=lambda pair: (-pair[0].bit_count(), lex_order_key(pair[0], width)))
    return colors


def _pool_masks(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None,
) -> tuple[int, int]:
    """``(covered mask, pool mask)`` of a frozenset-level call."""
    covered = frozenset(covered)
    covered_mask = topology.mask_from_nodes(covered)
    if awake is None:
        return covered_mask, covered_mask
    return covered_mask, topology.mask_from_nodes(covered & frozenset(awake))


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
    ids = topology.node_ids
    weighted = _candidate_masks(topology, *_pool_masks(topology, covered, awake))
    return [ids[bit] for _, bit, _ in weighted]


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
    return ColorScheme("greedy").color_classes(topology, covered, awake)


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
    return ColorScheme("exhaustive", max_classes).color_classes(topology, covered, awake)


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

    Both are checked when the scheme is built (``ValueError``): an unknown
    mode, or a cap below 1, which would act as a cap of 1.
    """

    mode: Literal["greedy", "exhaustive"] = "greedy"
    max_classes: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown colour scheme mode {self.mode!r}")
        if self.max_classes is not None and self.max_classes < 1:
            raise ValueError(f"max_classes must be None or >= 1, got {self.max_classes}")

    def color_masks(self, topology: WSNTopology, covered: int, pool: int) -> list[ColorMasks]:
        """The candidate colours as ``(colour mask, receivers mask)`` pairs.

        The mask-native core behind :meth:`color_classes`: ``covered`` is
        ``W`` and ``pool`` the nodes allowed to send (``covered`` itself in
        the synchronous system), bit ``i`` standing for
        ``topology.node_ids[i]``.
        """
        weighted = _candidate_masks(topology, covered, pool)
        if not weighted:
            return []
        if self.mode == "greedy":
            return _greedy_pack(weighted)
        return _enumerated_masks(topology, weighted, self.max_classes)

    def color_classes(
        self,
        topology: WSNTopology,
        covered: frozenset[int] | set[int],
        awake: Iterable[int] | None = None,
    ) -> list[frozenset[int]]:
        """Return the candidate colours for the current state."""
        masks = self.color_masks(topology, *_pool_masks(topology, covered, awake))
        return [topology.nodes_from_mask(color) for color, _ in masks]
