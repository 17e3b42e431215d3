"""Streaming execution: trace parity and the no-materialization guarantee."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy
from repro.dutycycle.models import build_wakeup_schedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim import StreamSummary, run_broadcast, stream_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.streaming import STREAMING_BACKENDS


def _deployment(seed: int = 3):
    config = DeploymentConfig(
        num_nodes=30,
        area_side=26.0,
        radius=9.0,
        source_min_ecc=2,
        source_max_ecc=None,
    )
    return deploy_uniform(config=config, seed=seed)


def _assert_summary_matches(summary: StreamSummary, result) -> None:
    assert summary.policy_name == result.policy_name
    assert summary.source == result.source
    assert summary.start_time == result.start_time
    assert summary.end_time == result.end_time
    assert summary.latency == result.latency
    assert summary.covered_count == len(result.covered)
    assert summary.num_advances == result.num_advances
    assert summary.total_transmissions == result.total_transmissions
    assert summary.failed_deliveries == result.failed_deliveries
    assert summary.idle_time == result.idle_time
    assert summary.synchronous == result.synchronous
    assert summary.cycle_rate == result.cycle_rate


# The 17-approximation drives the kernel's next_decision_slot jump.
@pytest.mark.parametrize("make_policy", [EModelPolicy, Approx17Policy])
@pytest.mark.parametrize("engine", sorted(STREAMING_BACKENDS))
def test_streamed_advances_equal_materialized_trace(engine, make_policy) -> None:
    topology, source = _deployment()
    schedule = build_wakeup_schedule(topology.node_ids, rate=5, seed=11)
    result = run_broadcast(
        topology,
        source,
        make_policy(),
        schedule=schedule,
        align_start=True,
        engine="vectorized",
    )
    streamed = []
    summary = stream_broadcast(
        topology,
        source,
        make_policy(),
        schedule=schedule,
        align_start=True,
        engine=engine,
        sink=streamed.append,
    )
    assert tuple(streamed) == result.advances
    _assert_summary_matches(summary, result)


def test_streamed_lossy_run_matches_materialized() -> None:
    topology, source = _deployment(seed=5)
    link = IndependentLossLinks(0.25, seed=5)
    result = run_broadcast(
        topology, source, EModelPolicy(), engine="vectorized", link_model=link
    )
    assert result.failed_deliveries > 0  # the loss axis is actually exercised
    summary = stream_broadcast(topology, source, EModelPolicy(), link_model=link)
    _assert_summary_matches(summary, result)


def test_streaming_does_not_materialize_advances() -> None:
    """Memory regression: a counting sink keeps no advance alive.

    Weak references stand in for a memory profiler: if the engine (or the
    streaming driver) retained the advance list, the referents would
    survive the run.  Every yielded advance must be collectable once the
    sink returns and the run completes.
    """
    topology, source = _deployment(seed=7)
    schedule = build_wakeup_schedule(topology.node_ids, rate=4, seed=7)
    refs: list[weakref.ref] = []

    def counting_sink(advance) -> None:
        refs.append(weakref.ref(advance))

    summary = stream_broadcast(
        topology,
        source,
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        sink=counting_sink,
    )
    assert summary.num_advances == len(refs) > 0
    gc.collect()
    alive = [ref for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)}/{len(refs)} streamed advances still alive"


def test_streaming_with_default_sink_discards_advances() -> None:
    topology, source = _deployment(seed=9)
    result = run_broadcast(topology, source, LargestFirstPolicy(), engine="vectorized")
    summary = stream_broadcast(topology, source, LargestFirstPolicy())
    _assert_summary_matches(summary, result)


def test_streaming_rejects_reference_engine() -> None:
    topology, source = _deployment(seed=2)
    with pytest.raises(ValueError, match="cannot stream"):
        stream_broadcast(topology, source, EModelPolicy(), engine="reference")


def test_streaming_rejects_planned_policies_on_lossy_links() -> None:
    from repro.baselines.approx26 import Approx26Policy

    topology, source = _deployment(seed=4)
    with pytest.raises(ValueError, match="cannot run over lossy links"):
        stream_broadcast(
            topology,
            source,
            Approx26Policy(),
            link_model=IndependentLossLinks(0.2, seed=1),
        )


def test_streaming_rejects_unknown_source() -> None:
    topology, _ = _deployment(seed=6)
    with pytest.raises(ValueError, match="unknown source node"):
        stream_broadcast(topology, max(topology.node_ids) + 99, EModelPolicy())


class TestStreamSinkError:
    """A raising sink aborts the run loudly, with the failing slot attached."""

    def test_sink_exception_carries_the_failing_advance(self):
        from repro.sim.streaming import StreamSinkError

        topology, source = _deployment(seed=3)
        seen = []

        def fragile_sink(advance) -> None:
            if len(seen) == 2:
                raise OSError("disk full")
            seen.append(advance)

        with pytest.raises(StreamSinkError) as info:
            stream_broadcast(topology, source, EModelPolicy(), sink=fragile_sink)
        error = info.value
        assert error.num_advances == 3  # failed consuming the third advance
        assert error.advance.time >= seen[-1].time
        assert len(error.advance.color) >= 1
        assert isinstance(error.__cause__, OSError)
        message = str(error)
        assert "advance 3" in message
        assert f"time {error.advance.time}" in message
        assert "transmitter(s)" in message and "receiver(s)" in message
        assert "OSError: disk full" in message

    def test_failure_on_the_first_advance(self):
        from repro.sim.streaming import StreamSinkError

        topology, source = _deployment(seed=5)

        def broken_sink(advance) -> None:
            raise ValueError("bad consumer")

        with pytest.raises(StreamSinkError, match="advance 1 at time"):
            stream_broadcast(topology, source, EModelPolicy(), sink=broken_sink)

    def test_healthy_sinks_are_unaffected(self):
        topology, source = _deployment(seed=7)
        advances = []
        summary = stream_broadcast(
            topology, source, EModelPolicy(), sink=advances.append
        )
        assert summary.num_advances == len(advances)


class TestStreamingTelemetry:
    def test_slot_advanced_events_mirror_the_advances(self):
        from repro.obs.bus import EVENT_BUS
        from repro.obs.events import SlotAdvanced
        from repro.obs.sinks import RingBufferSink

        topology, source = _deployment(seed=4)
        streamed = []
        ring = RingBufferSink()
        with EVENT_BUS.attached(ring):
            summary = stream_broadcast(
                topology, source, EModelPolicy(), sink=streamed.append
            )
        slots = [e for e in ring.events() if isinstance(e, SlotAdvanced)]
        assert len(slots) == summary.num_advances
        assert [s.time for s in slots] == [a.time for a in streamed]
        assert [s.transmitters for s in slots] == [len(a.color) for a in streamed]
        assert [s.receivers for s in slots] == [len(a.receivers) for a in streamed]
