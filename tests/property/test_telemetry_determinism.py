"""Determinism under telemetry: observation must never perturb the records.

The telemetry contract (docs/telemetry.md): attaching any sink set to the
event bus changes *nothing* about a sweep's output — records are byte-equal
with no sink, a ring buffer, a jsonl trace, or the full metrics fold, for
every engine and for worker threads served by a fabric coordinator.  Events carry no RNG state
and no instrumented code path reads the bus, so the only way this property
can break is an instrumentation bug; this suite is the tripwire.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SearchConfig, SweepConfig
from repro.experiments.runner import SweepResult, run_sweep, sweep_cells
from repro.fabric import FabricCoordinator
from repro.obs.bus import EVENT_BUS
from repro.obs.metrics import MetricsSink
from repro.obs.sinks import JsonlTraceSink, RingBufferSink, read_trace
from repro.store import ExperimentStore
from repro.utils.format import to_csv
from tests.fabric_fleet import run_workers

ENGINES = ("reference", "vectorized")


def _config() -> SweepConfig:
    return SweepConfig(
        node_counts=(16, 24),
        area_side=10.0,
        radius=4.0,
        repetitions=2,
        source_min_ecc=1,
        source_max_ecc=None,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
    )


def _sweep(engine: str, **kwargs) -> SweepResult:
    return run_sweep(_config(), system="duty", rate=5, engine=engine, **kwargs)


def _csv(result: SweepResult) -> str:
    """The byte-level record serialization the equality claim is made on."""
    return to_csv(SweepResult.ROW_HEADERS, result.to_rows())


@pytest.fixture(autouse=True)
def quiet_bus():
    assert EVENT_BUS.sinks == (), "a previous test leaked a sink"
    yield
    for sink in EVENT_BUS.sinks:
        EVENT_BUS.detach(sink)


@pytest.mark.parametrize("engine", ENGINES)
def test_records_are_byte_identical_with_every_sink_set(engine, tmp_path):
    bare = _sweep(engine)

    ring = RingBufferSink()
    with EVENT_BUS.attached(ring):
        ringed = _sweep(engine)

    jsonl = JsonlTraceSink(tmp_path / f"{engine}.jsonl")
    metrics = MetricsSink()
    with EVENT_BUS.attached(jsonl, metrics):
        folded = _sweep(engine)
    jsonl.close()

    assert ringed.records == bare.records
    assert folded.records == bare.records
    assert _csv(ringed) == _csv(bare)
    assert _csv(folded) == _csv(bare)
    # The observation itself actually happened (no vacuous pass):
    assert ring.counts().get("cell_finished") == 4
    assert jsonl.written > 0
    assert sum(1 for _ in read_trace(jsonl.path)) == jsonl.written
    fold = metrics.registry.snapshot()
    assert fold["counters"]["sweep.cells_finished"] == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_pool_workers_stay_byte_identical_under_telemetry(engine):
    # Forked pool children reset their inherited bus (fork-safety), so the
    # parent still observes every cell finish and the records stay equal.
    bare = _sweep(engine, workers=2)
    ring = RingBufferSink()
    with EVENT_BUS.attached(ring):
        observed = _sweep(engine, workers=2)
    assert observed.records == bare.records
    assert _csv(observed) == _csv(bare)
    assert ring.counts().get("cell_finished") == 4


def test_threaded_fleet_stays_byte_identical_under_telemetry(tmp_path):
    bare = _sweep("reference")
    cells = sweep_cells(_config(), system="duty", rate=5, engine="reference")
    ring = RingBufferSink()
    jsonl = JsonlTraceSink(tmp_path / "fleet.jsonl")
    metrics = MetricsSink()
    with ExperimentStore(tmp_path / "store") as store:
        coordinator = FabricCoordinator(cells, store=store)
        with EVENT_BUS.attached(ring, jsonl, metrics):
            run_workers(coordinator, 2)
        jsonl.close()
        # The coordinator committed to the store; a cached rerun reads it.
        fleet = _sweep("reference", store=store)
    assert fleet.cache_hits == len(cells) and fleet.cache_misses == 0
    assert fleet.records == bare.records
    assert _csv(fleet) == _csv(bare)
    kinds = ring.counts()
    assert kinds.get("lease_claimed", 0) >= 4  # the fleet path was observed
    assert kinds.get("cell_started") == 4
    assert sum(1 for _ in read_trace(jsonl.path)) == jsonl.written > 0
    assert metrics.registry.snapshot()["counters"]["fabric.lease_claims"] >= 4


def test_trace_replays_into_the_same_metrics_as_live_folding(tmp_path):
    # The monitor's --trace feed folds the jsonl back through MetricsSink;
    # counters must match a live in-process fold of the same run.
    from repro.obs.events import event_from_json

    live = MetricsSink()
    jsonl = JsonlTraceSink(tmp_path / "trace.jsonl")
    with EVENT_BUS.attached(live, jsonl):
        _sweep("vectorized")
    jsonl.close()
    replayed = MetricsSink()
    for payload in read_trace(jsonl.path):
        replayed.consume(event_from_json(payload))
    live_counters = live.registry.snapshot()["counters"]
    replayed_counters = replayed.registry.snapshot()["counters"]
    assert replayed_counters == live_counters
