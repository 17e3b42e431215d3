"""End-to-end fabric run: coordinator + three workers over loopback HTTP.

The real thing, no manual clocks: a :class:`FabricHTTPServer` on an
ephemeral loopback port, three worker threads speaking actual HTTP through
:class:`HttpTransport`, and one of them killed mid-cell while holding a
lease.  The surviving workers absorb the re-queued cell after its (short)
lease TTL expires, the sweep converges, and the records the coordinator
committed to its store — read back in serial cell order — are
bit-identical to a plain local ``run_sweep``.  A store-backed rerun is then
100% cached: the fabric committed through exactly the digests a local
sweep derives.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import run_sweep, sweep_cells
from repro.fabric import FabricCoordinator, FabricWorker, WorkerCrashed
from repro.store import ExperimentStore
from tests.fabric_fleet import run_workers, stored_records

_CONFIG = replace(QUICK_SWEEP, node_counts=(50, 100), repetitions=2)
_LEASE_TTL = 0.75  # short enough that lease recovery happens in test time


class _CrashOnceWorker(FabricWorker):
    """Dies (via :class:`WorkerCrashed`) on its first simulation, holding
    the lease — the mid-cell crash the lease TTL exists to survive."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._crashed = False

    def simulate(self, cell, grant):
        if not self._crashed:
            self._crashed = True
            raise WorkerCrashed(f"{self.name}: killed mid-cell")
        return super().simulate(cell, grant)  # pragma: no cover - never revived


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(_CONFIG, system="sync", workers=1)


def test_fleet_survives_worker_death_over_http(tmp_path, baseline):
    def factory(index: int, transport) -> FabricWorker:
        if index == 0:
            return _CrashOnceWorker(transport, name="doomed-worker", poll_interval=0.01)
        return FabricWorker(transport, name=f"survivor-{index}", poll_interval=0.01)

    cells = sweep_cells(_CONFIG, system="sync")
    with ExperimentStore(tmp_path / "store") as store:
        coordinator = FabricCoordinator(
            cells, store=store, lease_ttl=_LEASE_TTL, backoff_s=0.05
        )
        workers = run_workers(
            coordinator, 3, transport="http", worker_factory=factory
        )
        per_cell = stored_records(store, cells)
        assert [r for records in per_cell for r in records] == baseline.records

        # The doomed worker really did die holding a lease...
        doomed = workers[0]
        assert doomed._crashed
        assert doomed.stats.claims == 1
        assert doomed.stats.completed == 0
        # ...its cell was recovered by the survivors (an expiry charged one
        # failed attempt against exactly one cell)...
        status = coordinator.status()
        assert status["done"] is True
        assert status["counts"]["completed"] == status["total"]
        assert status["counts"]["quarantined"] == 0
        survivors = [worker.stats for worker in workers if worker.stats.claims > 0]
        assert sum(worker.stats.completed for worker in workers) == status["total"]
        assert len(survivors) >= 2  # the dead worker's cell went elsewhere

        # ...and a plain rerun against the fabric-written store is fully
        # cached and bit-identical — the determinism contract, end to end.
        rerun = run_sweep(_CONFIG, system="sync", store=store)
        assert rerun.cache_misses == 0
        assert rerun.cache_hits == len(cells)
        assert rerun.records == baseline.records

    # No stray threads left behind (server and heartbeat threads joined).
    lingering = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("fabric-http", "fleet-worker", "survivor"))
    ]
    assert lingering == []
