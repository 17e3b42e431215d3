"""Reference schedulers used in examples and ablations (not in the paper's plots).

* :class:`FloodingPolicy` — idealised, collision-free flooding: every covered
  frontier node relays every round.  Its latency equals the source
  eccentricity ``d``, i.e. the absolute lower bound any interference-aware
  scheduler is measured against.  (Real flooding would suffer the broadcast
  storm problem [17]; the idealisation is only useful as a floor.)
* :class:`LargestFirstPolicy` — the pipeline structure of the paper's
  schedulers but with the naive selection rule "always launch the greedy
  colour with the most receivers" (no time counter, no edge estimate).  The
  pipeline ablation benchmark uses it to isolate how much of the improvement
  comes from the pipeline itself versus from the conflict-aware selection.
"""

from __future__ import annotations

from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import frontier_candidates
from repro.core.policies import SchedulingPolicy, greedy_decision_classes

__all__ = ["FloodingPolicy", "LargestFirstPolicy"]


class FloodingPolicy(SchedulingPolicy):
    """Idealised collision-free flooding (latency floor ``d``).

    ``interference_free`` is False: the transmitter sets deliberately ignore
    conflicts, so run it with ``run_broadcast(..., validate=False)`` — it is
    a lower-bound reference, not a schedule the paper's model admits.
    """

    name = "flooding"
    interference_free = False
    frontier_driven = True

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        awake = None
        if state.schedule is not None:
            awake = state.schedule.awake_nodes(state.covered, state.time)
        candidates = frontier_candidates(state.topology, state.covered, awake)
        if not candidates:
            return None
        return Advance.from_color(
            state.topology,
            state.covered,
            frozenset(candidates),
            state.time,
            color_index=1,
            num_colors=1,
            note=self.name,
        )


class LargestFirstPolicy(SchedulingPolicy):
    """Pipelined scheduling with the naive "most receivers first" selection."""

    name = "largest-first"
    frontier_driven = True

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if state.is_complete:
            return None
        pairs = greedy_decision_classes(state)
        if not pairs:
            return None
        color, receivers = pairs[0]
        return Advance.from_masks(
            state.topology,
            color,
            receivers,
            state.time,
            color_index=1,
            num_colors=len(pairs),
            note=self.name,
        )
