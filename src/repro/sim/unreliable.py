"""Broadcasting over unreliable links (the robustness concern of §VI).

The related-work section points out that schedulers relying on "healthy,
interference-free links" suffer retransmissions and even live-lock once
signals fail.  The conflict-aware schedulers of this paper degrade
gracefully: a node that misses a transmission simply stays uncovered, so it
remains part of the frontier's uncovered set and a later advance re-serves
it — no protocol change is needed.

This module owns no engine loop: the loss model lives in
:class:`repro.sim.links.IndependentLossLinks` and runs inside the shared
kernels of *both* backends, so
``run_broadcast(..., link_model=..., engine=...)`` is the canonical entry
point and the loss axis composes with every scenario, duty model, engine
and worker count (see :mod:`repro.experiments.runner`).  This module adds
:func:`run_lossy_broadcast`, a convenience wrapper over
:func:`~repro.sim.broadcast.run_broadcast` for one lossy run (the
robustness example's entry point).  Latency-vs-loss curves come from the
sweep runner: ``repro.experiments.figures.figure_reliability``.

Note on traces: a lossy advance records the *delivered* receivers in
``Advance.receivers`` and the uncovered neighbours the advance would have
reached over reliable links in ``Advance.intended_receivers``, so energy
and transmission accounting (which keys off ``Advance.color``) charges
retransmissions correctly and ``BroadcastResult.retransmissions`` /
``failed_deliveries`` can be derived from the trace alone.
"""

from __future__ import annotations

from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.trace import BroadcastResult

__all__ = ["run_lossy_broadcast"]


def run_lossy_broadcast(
    topology: WSNTopology,
    source: int,
    policy: SchedulingPolicy,
    *,
    loss_probability: float,
    schedule: WakeupSchedule | None = None,
    seed: int | None = 0,
    start_time: int = 1,
    align_start: bool = False,
    max_time: int | None = None,
    engine: str = "reference",
    validate: bool | None = None,
) -> BroadcastResult:
    """Run one broadcast over unreliable links and return the trace.

    A thin wrapper over :func:`repro.sim.broadcast.run_broadcast` with an
    :class:`~repro.sim.links.IndependentLossLinks` model: the default time
    limit is scaled up by the expected number of retransmissions
    ``1 / (1 - p)`` (via the link model's ``limit_stretch``) so that high
    loss rates do not trip the reliable worst-case bound prematurely, and
    ``engine`` selects any registered backend — the traces are
    bit-identical per (probability, seed) across backends.

    ``validate`` defaults to the policy's ``interference_free`` flag: the
    trace validator re-imposes interference-freedom, which policies like
    idealised flooding deliberately opt out of (pre-refactor, lossy runs
    were never validated at all, so this keeps those callers working).
    """
    if validate is None:
        validate = getattr(policy, "interference_free", True)
    return run_broadcast(
        topology,
        source,
        policy,
        schedule=schedule,
        start_time=start_time,
        align_start=align_start,
        max_time=max_time,
        validate=validate,
        engine=engine,
        link_model=IndependentLossLinks(loss_probability, seed=seed),
    )
