"""Worker threads against one coordinator: the fabric tests' fleet harness.

``fabric serve`` plus ``fabric work`` processes is the product's fabric
path; these helpers run the same pieces in one process.  A store-backed
:class:`~repro.fabric.FabricCoordinator` serves the grid, and worker
threads claim cells over :class:`~repro.fabric.LocalTransport` or over
loopback HTTP to a :class:`~repro.fabric.FabricHTTPServer`.  The store is
the coordinator's only output, so the records are read back from it.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.experiments.runner import default_policies
from repro.fabric import (
    FabricCoordinator,
    FabricHTTPServer,
    FabricWorker,
    HttpTransport,
    LocalTransport,
    Transport,
    WorkerCrashed,
)
from repro.store import ExperimentStore, cell_key_for

WorkerFactory = Callable[[int, Transport], FabricWorker]


def default_worker(index: int, transport: Transport) -> FabricWorker:
    return FabricWorker(transport, name=f"fleet-worker-{index}", poll_interval=0.01)


def _run(worker: FabricWorker) -> None:
    try:
        worker.run()
    except WorkerCrashed:
        pass  # a dead worker is a fleet event; lease expiry recovers its cell


def run_workers(
    coordinator: FabricCoordinator,
    workers: int,
    *,
    transport: str = "local",
    worker_factory: WorkerFactory = default_worker,
) -> list[FabricWorker]:
    """Run ``workers`` worker threads until every one has exited.

    ``transport`` is ``"local"`` (direct calls) or ``"http"`` (a loopback
    server, one socket round-trip per message).  Returns the workers, whose
    ``stats`` say what each did; the server and transports are closed.
    """
    server = None
    if transport == "http":
        server = FabricHTTPServer(coordinator)
        url = server.start()
        transports = [HttpTransport(url) for _ in range(workers)]
    else:
        transports = [LocalTransport(coordinator) for _ in range(workers)]
    fleet = [worker_factory(index, t) for index, t in enumerate(transports)]
    threads = [
        threading.Thread(target=_run, args=(worker,), name=worker.name)
        for worker in fleet
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for t in transports:
            t.close()
        if server is not None:
            server.stop()
    return fleet


def stored_records(store: ExperimentStore, cells: Sequence) -> list:
    """Each cell's committed records, read from ``store`` in cell order.

    The keys are derived the way a local ``run_sweep`` derives them, so a
    cell the coordinator never committed reads back as ``None``.
    """
    return [
        store.get(
            cell_key_for(
                cell.config,
                system=cell.system,
                rate=cell.rate,
                num_nodes=cell.num_nodes,
                repetition=cell.repetition,
                policies=tuple(default_policies(cell.config, cell.system)),
            )
        )
        for cell in cells
    ]
