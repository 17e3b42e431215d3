"""Fault-injection suite for the sweep fabric's determinism contract.

The contract: fabric-run sweep records are **bit-identical** to a local
``run_sweep`` of the same config — for any fleet size, worker arrival
order, and crash/retry history.  This suite attacks that claim with a
seeded fault vocabulary (``tests/property/conftest.py``):

* dropped requests and dropped responses (the worker retries a result the
  coordinator may already have committed),
* duplicated deliveries (at-least-once semantics on every message),
* injected delays that push a live lease past its TTL (the slow-worker
  schedule: the cell is re-leased while the original worker still runs),
* worker crashes holding a lease, before posting, and after posting,
* coordinator restarts between worker generations (queue rebuilt from the
  store delta plus the persisted failure journal).

Every schedule runs single-threaded on a manual clock — one flaky worker
generation at a time, lease expiry driven by explicit clock advances — so
each (schedule, seed) pair is a pure function of its pytest id and replays
exactly.  After convergence the suite asserts the records equal the cold
local baseline byte for byte, and that a plain ``run_sweep`` against the
fabric-populated store is 100% cached (same digests ⇒ same cells).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import run_sweep, sweep_cells
from repro.fabric import (
    FabricCoordinator,
    LocalTransport,
    TransportError,
    WorkerCrashed,
)
from repro.store import ExperimentStore
from tests.fabric_fleet import run_workers, stored_records

from .conftest import FlakyTransport, ManualClock, make_flaky_worker_class

#: Small enough to keep ~20 schedule/seed runs fast, big enough that every
#: fault class actually fires (two node counts × two repetitions).
_CONFIG = replace(QUICK_SWEEP, node_counts=(50, 100), repetitions=2)
_LEASE_TTL = 5.0
_PAST_TTL = _LEASE_TTL + 1.0

#: name -> (transport faults, worker faults, restart period in generations).
SCHEDULES = {
    "clean": ({}, {}, None),
    "drop-requests": (dict(drop_request=0.3), {}, None),
    "drop-responses": (dict(drop_response=0.3), {}, None),
    "duplicates": (dict(duplicate=0.5), {}, None),
    "lease-expiry": (dict(delay=0.25, delay_by=_PAST_TTL), {}, None),
    "crashes": (
        {},
        dict(crash_after_claim=0.25, crash_before_post=0.15, crash_after_post=0.15),
        None,
    ),
    "restarts": ({}, dict(crash_after_claim=0.5), 1),
    "everything": (
        dict(drop_request=0.15, drop_response=0.15, duplicate=0.3, delay=0.1,
             delay_by=_PAST_TTL),
        dict(crash_after_claim=0.15, crash_before_post=0.1, crash_after_post=0.1),
        2,
    ),
}


@pytest.fixture(scope="module")
def baseline():
    """The cold local run every fabric schedule must reproduce exactly."""
    return run_sweep(_CONFIG, system="sync", workers=1)


def _converge(store, schedule_name: str, seed: int) -> list:
    """Drive one fault schedule to convergence; returns the cell records.

    One flaky worker generation runs at a time against a shared manual
    clock; a crash ends the generation, the clock jumps past the lease TTL
    (exactly what wall time does to a real dead worker's lease), and the
    next generation picks up the pieces.  Restart schedules additionally
    rebuild the coordinator from the store delta between generations.
    """
    transport_faults, worker_faults, restart_every = SCHEDULES[schedule_name]
    cells = sweep_cells(_CONFIG, system="sync")
    clock = ManualClock()
    rng = random.Random(seed)
    FlakyWorker = make_flaky_worker_class()

    def build_coordinator():
        return FabricCoordinator(
            cells,
            store=store,
            lease_ttl=_LEASE_TTL,
            max_attempts=100,  # faults must never quarantine a healthy cell
            backoff_s=0.5,
            clock=clock,
        )

    coordinator = build_coordinator()
    generation = 0
    while not coordinator.status()["done"]:
        generation += 1
        assert generation <= 200, (
            f"schedule {schedule_name!r} seed {seed}: no convergence after "
            f"{generation - 1} worker generations"
        )
        if restart_every is not None and generation % (restart_every + 1) == 0:
            # Coordinator restart: everything in-memory is lost; the new one
            # re-partitions against the store and the persisted journal.
            coordinator = build_coordinator()
        transport = FlakyTransport(
            LocalTransport(coordinator), rng, clock, **transport_faults
        )
        worker = FlakyWorker(
            transport,
            rng,
            name=f"gen-{generation}",
            heartbeats=False,  # single-threaded: expiry is the clock's job
            sleep=clock.advance,
            poll_interval=0.25,
            claim_patience=None,  # drops are injected, not a dead server
            **worker_faults,
        )
        try:
            worker.run()
        except WorkerCrashed:
            clock.advance(_PAST_TTL)  # the dead worker's lease must expire
        except TransportError:  # pragma: no cover - defensive
            clock.advance(_PAST_TTL)
    assert not coordinator.quarantined
    return stored_records(store, cells)


@pytest.mark.slow_property
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_every_fault_schedule_is_bit_identical(tmp_path, baseline, schedule, seed):
    store = ExperimentStore(tmp_path / "store")
    per_cell = _converge(store, schedule, seed)
    fabric_records = [record for records in per_cell for record in records]
    assert fabric_records == baseline.records, (
        f"schedule {schedule!r} seed {seed} broke the determinism contract"
    )
    # The fabric committed through the same digests a local sweep derives,
    # so a plain store-backed rerun must be 100% cached — and identical.
    rerun = run_sweep(_CONFIG, system="sync", store=store)
    assert rerun.cache_misses == 0
    assert rerun.cache_hits == len(per_cell)
    assert rerun.records == baseline.records
    store.close()


@pytest.mark.slow_property
@pytest.mark.parametrize("transport", ["local", "http"])
def test_threaded_fleet_matches_local_run(tmp_path, baseline, transport):
    """Real threads (and, on 'http', real loopback sockets) — same records."""
    cells = sweep_cells(_CONFIG, system="sync")
    store = ExperimentStore(tmp_path / "store")
    coordinator = FabricCoordinator(cells, store=store, backoff_s=0.05)
    workers = run_workers(coordinator, 3, transport=transport)
    status = coordinator.status()
    assert status["done"] and status["counts"]["completed"] == len(cells)
    assert sum(worker.stats.completed for worker in workers) == len(cells)
    per_cell = stored_records(store, cells)
    assert [record for records in per_cell for record in records] == baseline.records
    rerun = run_sweep(_CONFIG, system="sync", store=store)
    assert rerun.cache_misses == 0
    assert rerun.cache_hits == len(cells)
    assert rerun.records == baseline.records
    store.close()
