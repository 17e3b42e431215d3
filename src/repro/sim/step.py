"""The mask step check: one advance of the wavefront over ``W``, on int masks.

An advance is a colour ``C`` relaying at time ``t`` from the covered set
``W``; it is a legal step of the paper's model when

* every sender holds the message (``C ⊆ W``) and, in the duty-cycle
  system, is awake at ``t``;
* no uncovered node hears two senders (the pairwise rule of Eq. 1,
  constraint 3: two senders conflict iff they share an uncovered
  neighbour);
* the recorded receivers are exactly ``N(C) \\ W`` — or, for a trace over
  lossy links, a subset of it whose recorded intent is ``N(C) \\ W``.

:func:`check_step` decides all of this on int bitmasks (bit ``i`` is
``topology.node_ids[i]``) in one pass over the colour.  The vectorized
engine (:mod:`repro.sim.fast_engine`) runs it on every advance a policy
returns, and the vectorized trace validator (:mod:`repro.sim.validation`)
replays a finished trace through it.  Neither builds an error text on the
passing path: on a failure both hand the advance to the set-based
reference check, which names the violation.
"""

from __future__ import annotations

from repro.core.advance import Advance
from repro.network.topology import WSNTopology

__all__ = ["StepMasks", "check_step"]

#: A legal step's ``(colour, heard, receivers)`` masks.
StepMasks = tuple[int, int, int]


def check_step(
    topology: WSNTopology,
    advance: Advance,
    covered: int,
    awake: int,
    *,
    conflicts: bool = True,
    lossy: bool = False,
) -> StepMasks | None:
    """Check ``advance`` as one step from ``W = covered``; its masks, or ``None``.

    ``awake`` is the mask of the nodes awake at the advance's time (``-1``
    in the synchronous system, where everyone may send).  ``conflicts=False``
    skips the two-senders rule (for policies that do not promise
    interference-free advances); ``lossy=True`` accepts recorded receivers
    that are a subset of ``N(C) \\ W`` when the advance's
    ``intended_receivers``, if recorded, equal it.

    Returns ``(colour, heard, receivers)``: the colour mask, ``N(C)`` (every
    node in range of a sender, covered or not) and the recorded receivers
    mask.  ``None`` when any rule fails or the advance names a node the
    topology does not have.
    """
    index_of = topology.index_of
    neighbors = topology.neighbor_masks
    color = heard = twice = 0
    try:
        for node in advance.color:
            bit = index_of(node)
            color |= 1 << bit
            reach = neighbors[bit]
            twice |= heard & reach
            heard |= reach
        receivers = topology.mask_from_nodes(advance.receivers)
    except KeyError:
        return None
    if color & ~(covered & awake):
        return None
    uncovered = ~covered
    if conflicts and twice & uncovered:
        return None
    expected = heard & uncovered
    if not lossy:
        return (color, heard, receivers) if receivers == expected else None
    if receivers & ~expected:
        return None
    intended = advance.intended_receivers
    if intended is not None:
        try:
            if topology.mask_from_nodes(intended) != expected:
                return None
        except KeyError:
            return None
    return color, heard, receivers
