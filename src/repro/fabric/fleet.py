"""In-process fleets: the ``run_sweep(fabric=...)`` execution mode.

A :class:`LocalFleet` is one of the sweep runner's interchangeable cell
sources.  Handed the runner's missing cells, it spins up a store-less
coordinator, runs ``n`` worker threads against it — over direct in-process
calls by default, or over a real loopback HTTP server with
``transport="http"`` — and streams each cell's records back in serial cell
order as soon as the cell and every earlier one have committed.  The runner
writes them back to its store and reports progress exactly as it does for
an in-process or pool run.  The records are bit-identical to a local run
for any worker count, arrival order or crash/retry history: that is the
determinism contract, and the fault suite
(``tests/property/test_fabric_faults.py``) holds the fleet to it.

The ``worker_factory`` seam lets tests place arbitrary workers in the
fleet (flaky ones included); a worker raising
:class:`~repro.fabric.worker.WorkerCrashed` simply dies — the fleet leans
on lease expiry and the surviving workers to finish the grid, exactly like
a remote fleet would.

A fleet stops leasing as soon as the next cell in order is quarantined:
no later cell can reach the runner, so simulating one is wasted work.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.protocol import FabricError
from repro.fabric.queue import DEFAULT_LEASE_TTL
from repro.fabric.server import FabricHTTPServer
from repro.fabric.transport import HttpTransport, LocalTransport, Transport
from repro.fabric.worker import FabricWorker, WorkerCrashed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import RunRecord, SweepCell

__all__ = ["LocalFleet"]

WorkerFactory = Callable[[int, Transport], FabricWorker]


class LocalFleet:
    """Coordinator + ``workers`` worker threads, started per ``execute`` call.

    Parameters
    ----------
    workers:
        Worker thread count.
    transport:
        ``"local"`` (direct in-process calls) or ``"http"`` (a real
        loopback :class:`~repro.fabric.server.FabricHTTPServer`, one
        socket round-trip per message — the full wire path).
    lease_ttl, max_attempts, backoff_s:
        Coordinator lease knobs; the defaults suit in-process fleets where
        a "crash" is a dead thread.
    poll_interval:
        Retry sleep of the default workers, and how often ``execute``
        checks for the next committed cell.
    worker_factory:
        Optional ``(worker_index, transport) -> FabricWorker`` override
        (fault harnesses, custom stats).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        transport: str = "local",
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = 5,
        backoff_s: float = 0.05,
        poll_interval: float = 0.01,
        worker_factory: WorkerFactory | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"a fleet needs at least one worker, got {workers}")
        if transport not in ("local", "http"):
            raise ValueError(
                f"unknown fleet transport {transport!r}; expected 'local' or 'http'"
            )
        self.workers = workers
        self.transport = transport
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.poll_interval = poll_interval
        self.worker_factory = worker_factory
        #: Per-worker stats of the most recent ``execute`` (fleet monitoring).
        self.last_stats: list = []
        self.last_status: dict | None = None

    def execute(self, cells: "Sequence[SweepCell]") -> "Iterator[list[RunRecord]]":
        """Run every cell through the fleet, yielding records in cell order.

        Cell ``i``'s records are yielded as soon as cells ``0..i`` have all
        committed, so the caller sees progress while the fleet runs.  Once
        no further cell can commit, the worker threads are joined and the
        server stopped; then :class:`FabricError` is raised if any cell
        ended quarantined or unfinished — a fleet serving a sweep must
        deliver *every* cell or fail loudly.  Drain the iterator: the
        teardown and that check run after the last yield.
        """
        if any(cell.policies is not None for cell in cells):
            raise ValueError(
                "fabric execution requires the default policy line-up; "
                "custom policy factories cannot cross the fabric wire"
            )
        coordinator = FabricCoordinator(
            cells,
            lease_ttl=self.lease_ttl,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
        )
        server: FabricHTTPServer | None = None
        transports: list[Transport] = []
        fleet: list[FabricWorker] = []
        threads: list[threading.Thread] = []
        try:
            if self.transport == "http":
                server = FabricHTTPServer(coordinator)
                url = server.start()
                transports = [HttpTransport(url) for _ in range(self.workers)]
            else:
                transports = [LocalTransport(coordinator) for _ in range(self.workers)]
            fleet = [
                self._make_worker(index, _OrderedTransport(transport, coordinator))
                for index, transport in enumerate(transports)
            ]
            threads = [
                threading.Thread(
                    target=self._run_worker, args=(worker,), name=worker.name
                )
                for worker in fleet
            ]
            for thread in threads:
                thread.start()
            for index in range(len(cells)):
                records = self._committed(coordinator, index, threads)
                if records is None:
                    break
                yield records
        finally:
            for thread in threads:
                thread.join()
            self.last_stats = [worker.stats for worker in fleet]
            self.last_status = coordinator.status()
            for transport in transports:
                transport.close()
            if server is not None:
                server.stop()
        quarantined = coordinator.quarantined
        if quarantined:
            details = "; ".join(
                f"cell {index}: {reason}" for index, reason in sorted(quarantined.items())
            )
            raise FabricError(
                f"fabric sweep failed: {len(quarantined)} cell(s) quarantined "
                f"after {self.max_attempts} attempts ({details})"
            )
        if not coordinator.done:
            raise FabricError(
                "fabric sweep stalled: every worker exited with cells unfinished"
            )

    def _committed(
        self,
        coordinator: FabricCoordinator,
        index: int,
        threads: "list[threading.Thread]",
    ) -> "list[RunRecord] | None":
        """Wait for cell ``index`` to commit; ``None`` once it never will."""
        while True:
            # Liveness first: with every worker gone, no commit can land
            # between this check and the lookup.
            alive = any(thread.is_alive() for thread in threads)
            try:
                return coordinator.records_for(index)
            except KeyError:
                if not alive:
                    return None
            time.sleep(self.poll_interval)

    def _make_worker(self, index: int, transport: Transport) -> FabricWorker:
        if self.worker_factory is not None:
            return self.worker_factory(index, transport)
        return FabricWorker(
            transport,
            name=f"fleet-worker-{index}",
            poll_interval=self.poll_interval,
        )

    @staticmethod
    def _run_worker(worker: FabricWorker) -> None:
        try:
            worker.run()
        except WorkerCrashed:
            pass  # a dead worker is a legitimate fleet event, not an error


class _OrderedTransport(Transport):
    """A worker's transport that answers ``claim`` with ``done`` once the
    earliest uncommitted cell is quarantined.

    The fleet yields cells in order, so nothing after that cell can be
    delivered; workers finish what they hold and exit instead of leasing
    the rest of the grid.
    """

    def __init__(self, inner: Transport, coordinator: FabricCoordinator) -> None:
        self._inner = inner
        self._coordinator = coordinator

    def request(self, action: str, payload: Mapping) -> dict:
        if action == "claim" and self._halted():
            return {"status": "done"}
        return self._inner.request(action, payload)

    def close(self) -> None:
        self._inner.close()

    def _halted(self) -> bool:
        quarantined = self._coordinator.quarantined
        if not quarantined:
            return False
        for index in range(min(quarantined)):
            try:
                self._coordinator.records_for(index)
            except KeyError:
                return False
        return True
