"""The event bus, the event taxonomy and the built-in sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs import events as events_mod
from repro.obs.bus import EVENT_BUS, EventBus, TelemetrySinkError
from repro.obs.events import (
    EVENT_KINDS,
    CellFinished,
    CellStarted,
    Event,
    LeaseClaimed,
    StoreHit,
    StoreMiss,
    SweepStarted,
    WorkerHeartbeat,
    event_from_json,
    event_to_json,
)
from repro.obs.sinks import (
    OBS_SINKS,
    CallbackSink,
    JsonlTraceSink,
    RingBufferSink,
    build_sink,
    read_trace,
    sink_names,
)
from tests.fresh_interpreter import modules_loaded_by


def _sample_events() -> list[Event]:
    """One instance of every registered event kind."""
    samples = [
        events_mod.SweepStarted("duty", 10, "vectorized", 4, 1, 3),
        events_mod.SweepFinished(16, 1, 3),
        events_mod.CellStarted("duty", 10, 50, 0),
        events_mod.CellFinished(0, 50, 0, 4),
        events_mod.StoreHit("ab" * 32, 4),
        events_mod.StoreMiss("cd" * 32),
        events_mod.StorePut("ef" * 32, 4),
        events_mod.LeaseClaimed(2, "w1", "lease-1"),
        events_mod.LeaseExpired(2, "w1", 1),
        events_mod.LeaseFailed(2, "w1", "bad digest", 2),
        events_mod.CellQuarantined(2, "bad digest — attempt 5/5", 5),
        events_mod.WorkerHeartbeat("w1", "lease-1", True),
    ]
    assert {event.kind for event in samples} == set(EVENT_KINDS)
    return samples


@pytest.fixture(autouse=True)
def quiet_bus():
    """Every test starts and ends with nothing attached to the global bus."""
    assert EVENT_BUS.sinks == (), "a previous test leaked a sink"
    yield
    for sink in EVENT_BUS.sinks:
        EVENT_BUS.detach(sink)


class TestEvents:
    def test_every_kind_round_trips_through_json(self):
        for event in _sample_events():
            payload = json.loads(json.dumps(event_to_json(event)))
            assert event_from_json(payload) == event

    def test_from_json_tolerates_sink_timestamp(self):
        payload = event_to_json(StoreMiss("00" * 32))
        payload["ts"] = 123.456
        assert event_from_json(payload) == StoreMiss("00" * 32)

    def test_from_json_rejects_unknown_kind(self):
        # Retired kinds (the removed stripe executor's and streamed
        # broadcast's) fail as loudly as never-registered ones.
        retired = ("stripe_started", "stripe_finished", "lane_woke", "slot_advanced")
        for kind in ("frobnicated", *retired):
            with pytest.raises(ValueError, match="unknown event kind"):
                event_from_json({"event": kind})

    def test_events_are_frozen_values(self):
        event = CellStarted("duty", 10, 50, 0)
        with pytest.raises(Exception):
            event.rate = 50  # type: ignore[misc]
        assert event == CellStarted("duty", 10, 50, 0)
        assert hash(event) == hash(CellStarted("duty", 10, 50, 0))


class TestEventBus:
    def test_attach_detach_toggle_active(self):
        bus = EventBus()
        assert bus.active is False
        ring = bus.attach(RingBufferSink())
        assert bus.active is True and bus.sinks == (ring,)
        bus.detach(ring)
        assert bus.active is False and bus.sinks == ()

    def test_attach_is_idempotent_per_instance(self):
        bus = EventBus()
        ring = RingBufferSink()
        bus.attach(ring)
        bus.attach(ring)
        assert bus.sinks == (ring,)

    def test_detach_unknown_sink_is_ignored(self):
        bus = EventBus()
        bus.detach(RingBufferSink())
        assert bus.active is False

    def test_emit_fans_out_in_attach_order(self):
        bus = EventBus()
        order: list[str] = []
        bus.attach(CallbackSink(lambda e: order.append("first")))
        bus.attach(CallbackSink(lambda e: order.append("second")))
        bus.emit(StoreMiss("00" * 32))
        assert order == ["first", "second"]

    def test_attached_contextmanager_scopes_sinks(self):
        bus = EventBus()
        ring = RingBufferSink()
        with bus.attached(ring):
            assert bus.active is True
            bus.emit(StoreHit("00" * 32, 1))
        assert bus.active is False
        assert ring.events() == [StoreHit("00" * 32, 1)]

    def test_sink_exception_wraps_in_telemetry_sink_error(self):
        bus = EventBus()

        def boom(event: Event) -> None:
            raise KeyError("broken consumer")

        sink = bus.attach(CallbackSink(boom))
        event = CellFinished(0, 50, 0, 4)
        with pytest.raises(TelemetrySinkError, match="cell_finished") as info:
            bus.emit(event)
        assert info.value.sink is sink
        assert info.value.event is event
        assert isinstance(info.value.__cause__, KeyError)

    def test_reset_after_fork_detaches_everything(self):
        bus = EventBus()
        bus.attach(RingBufferSink())
        bus._reset_after_fork()
        assert bus.active is False and bus.sinks == ()


class TestZeroCostWhenOff:
    """The zero-cost contract: no sink => hot paths never construct events.

    Every event class is swapped for a raiser; instrumented code that
    constructs an event with the bus inactive explodes immediately.  The
    import check runs a sweep in a fresh interpreter: with the bus
    inactive, not even the event classes load.
    """

    @pytest.fixture()
    def raising_events(self, monkeypatch):
        class Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("event constructed while telemetry is off")

        for name in EVENT_KINDS.values():
            monkeypatch.setattr(events_mod, name.__name__, Boom)
        return Boom

    @staticmethod
    def _cell_key():
        from repro.experiments.config import QUICK_SWEEP
        from repro.store import cell_key_for

        return cell_key_for(
            QUICK_SWEEP,
            system="duty",
            rate=10,
            num_nodes=16,
            repetition=0,
            policies=("17-approx", "E-model"),
        )

    def test_store_paths_construct_nothing_when_off(self, tmp_path, raising_events):
        from repro.store import ExperimentStore

        with ExperimentStore(tmp_path / "store") as store:
            assert store.get(self._cell_key()) is None  # miss path

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("rate", [None, 4])
    def test_broadcast_constructs_nothing_when_off(self, raising_events, engine, rate):
        from repro.core.policies import EModelPolicy
        from repro.dutycycle.schedule import WakeupSchedule
        from repro.network.deployment import DeploymentConfig, deploy_uniform
        from repro.sim import run_broadcast

        topology, source = deploy_uniform(
            config=DeploymentConfig(
                num_nodes=30,
                area_side=26.0,
                radius=9.0,
                source_min_ecc=2,
                source_max_ecc=None,
            ),
            seed=3,
        )
        schedule = None
        if rate is not None:
            schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=3)
        result = run_broadcast(
            topology,
            source,
            EModelPolicy(),
            schedule=schedule,
            align_start=schedule is not None,
            engine=engine,
        )
        assert result.covered == topology.node_set

    def test_lease_queue_constructs_nothing_when_off(self, raising_events):
        from repro.fabric.queue import LeaseQueue

        queue = LeaseQueue([0, 1], clock=lambda: 0.0)
        lease = queue.claim("w1")
        queue.fail(lease.lease_id, "synthetic")

    @pytest.mark.parametrize("system", ["sync", "duty"])
    def test_sweep_imports_nothing_when_off(self, tmp_path, system):
        # The contract covers import cost too: with no sink attached, a
        # sweep (store hits and misses included) loads no module at all,
        # so the event classes never load.
        loaded = modules_loaded_by(
            "import dataclasses\n"
            "from repro.experiments.config import QUICK_SWEEP\n"
            "from repro.experiments.runner import run_sweep\n"
            "from repro.store import ExperimentStore\n"
            "config = dataclasses.replace(QUICK_SWEEP, node_counts=(50,), repetitions=1)\n"
            f"store = ExperimentStore({str(tmp_path / 'store')!r})\n"
            "baseline = set(sys.modules)\n"
            f"run_sweep(config, system={system!r})\n"
            f"run_sweep(config, system={system!r}, store=store)\n"
            f"run_sweep(config, system={system!r}, store=store)\n"
        )
        assert loaded == set()

    def test_the_raisers_do_fire_once_a_sink_attaches(self, tmp_path, raising_events):
        # Control experiment: the monkeypatch really covers the call sites.
        from repro.store import ExperimentStore

        with ExperimentStore(tmp_path / "store") as store:
            with EVENT_BUS.attached(RingBufferSink()):
                with pytest.raises(AssertionError, match="telemetry is off"):
                    store.get(self._cell_key())


class TestRingBufferSink:
    def test_keeps_the_last_capacity_events(self):
        ring = RingBufferSink(capacity=2)
        for repetition in range(3):
            ring.consume(CellStarted("sync", 1, 50, repetition))
        assert ring.events() == [
            CellStarted("sync", 1, 50, 1),
            CellStarted("sync", 1, 50, 2),
        ]
        assert ring.total == 3

    def test_counts_by_kind_and_clear(self):
        ring = RingBufferSink()
        ring.consume(StoreMiss("00" * 32))
        ring.consume(StoreHit("00" * 32, 1))
        ring.consume(StoreHit("11" * 32, 2))
        assert ring.counts() == {"store_miss": 1, "store_hit": 2}
        ring.clear()
        assert ring.events() == [] and ring.total == 3

    def test_timestamped_pairs_are_ordered(self):
        ring = RingBufferSink()
        ring.consume(StoreMiss("00" * 32))
        ring.consume(StoreMiss("11" * 32))
        stamps = [stamp for stamp, _ in ring.timestamped()]
        assert stamps == sorted(stamps)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBufferSink(capacity=0)


class TestJsonlTraceSink:
    def test_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            for event in (SweepStarted("duty", 10, "reference", 2, 0, 2),
                          CellFinished(0, 50, 0, 4)):
                sink.consume(event)
            assert sink.written == 2
        decoded = [event_from_json(payload) for payload in read_trace(path)]
        assert decoded == [
            SweepStarted("duty", 10, "reference", 2, 0, 2),
            CellFinished(0, 50, 0, 4),
        ]
        for payload in read_trace(path):
            assert isinstance(payload["ts"], float)

    def test_read_trace_skips_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(StoreMiss("00" * 32))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "store_hit", "digest"')  # writer mid-line
        assert [p["event"] for p in read_trace(path)] == ["store_miss"]

    def test_read_trace_of_missing_file_is_empty(self, tmp_path):
        assert list(read_trace(tmp_path / "nope.jsonl")) == []

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()


class TestSinkRegistry:
    def test_catalog_names(self):
        assert sink_names() == ["callback", "jsonl", "ring"]
        assert set(OBS_SINKS) == {"ring", "jsonl", "callback"}

    def test_build_sink_instantiates_by_name(self, tmp_path):
        assert isinstance(build_sink("ring", capacity=8), RingBufferSink)
        jsonl = build_sink("jsonl", path=tmp_path / "t.jsonl")
        assert isinstance(jsonl, JsonlTraceSink)
        jsonl.close()
        assert isinstance(build_sink("callback", callback=print), CallbackSink)

    def test_build_sink_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown sink"):
            build_sink("syslog")


class TestBusIntegration:
    def test_lease_lifecycle_emits_typed_events(self):
        from repro.fabric.queue import LeaseQueue

        now = [0.0]
        queue = LeaseQueue(
            [7], max_attempts=2, backoff_s=0.0, clock=lambda: now[0]
        )
        ring = RingBufferSink()
        with EVENT_BUS.attached(ring):
            first = queue.claim("w1")
            queue.fail(first.lease_id, "rejected result")
            second = queue.claim("w2")
            now[0] = 1e9  # expire the second lease => quarantine (budget of 2)
            queue.expire()
        kinds = [event.kind for event in ring.events()]
        assert kinds == [
            "lease_claimed",
            "lease_failed",
            "lease_claimed",
            "lease_expired",
            "cell_quarantined",
        ]
        claimed = ring.events()[0]
        assert claimed == LeaseClaimed(7, "w1", first.lease_id)
        quarantined = ring.events()[-1]
        assert quarantined.attempts == 2 and "attempt 2/2" in quarantined.reason

    def test_worker_heartbeats_are_emitted_worker_side(self, monkeypatch, tmp_path):
        import time
        from dataclasses import replace

        import repro.fabric.worker as worker_mod
        from repro.experiments.config import QUICK_SWEEP
        from repro.experiments.runner import sweep_cells
        from repro.fabric import FabricCoordinator, FabricWorker, LocalTransport
        from repro.store import ExperimentStore

        cells = sweep_cells(
            replace(QUICK_SWEEP, node_counts=(50,), repetitions=1), system="sync"
        )
        store = ExperimentStore(tmp_path / "store")
        coordinator = FabricCoordinator(cells, store=store)
        worker = FabricWorker(
            LocalTransport(coordinator), name="hb-test", heartbeat_interval=0.02
        )
        grant = coordinator.handle_request("claim", {"worker": "hb-test"})
        # A slow stand-in cell guarantees the beater thread gets to fire.
        monkeypatch.setattr(worker_mod, "_run_cell", lambda cell: time.sleep(0.2) or [])
        ring = RingBufferSink()
        with EVENT_BUS.attached(ring):
            worker.simulate(cells[grant["index"]], grant)
        store.close()
        beats = [e for e in ring.events() if isinstance(e, WorkerHeartbeat)]
        assert beats, "no heartbeat emitted during a 0.2s cell at 0.02s interval"
        assert beats[0] == WorkerHeartbeat("hb-test", grant["lease"], True)
