"""Distributed sweep fabric: a coordinator/worker service over the store.

The sweep grid is embarrassingly parallel per cell and the store's cache
keys deliberately exclude execution mode — so *any* machine can contribute
*any* cell.  This package turns that into a service:

* :mod:`repro.fabric.queue` — :class:`LeaseQueue`, the
  claim/heartbeat/expire/complete/quarantine state machine with
  time-bounded leases, retry budgets and backoff;
* :mod:`repro.fabric.coordinator` — :class:`FabricCoordinator`: partitions
  the grid's missing cells against the store, leases them out, validates
  posted results and commits them atomically (idempotent by cell digest);
  restarts rebuild the queue from the store delta;
* :mod:`repro.fabric.server` / :mod:`repro.fabric.transport` — a stdlib
  asyncio HTTP front plus the matching client transports;
* :mod:`repro.fabric.worker` — :class:`FabricWorker`, the restartable
  claim-simulate-post loop (heartbeats, bounded post retries).

``fabric serve`` runs a store-backed coordinator behind the HTTP server,
and every ``fabric work`` process is one worker; in-process parallelism is
``run_sweep(..., workers=N)``.

The headline guarantee is the **determinism contract**: fabric-run sweep
records are bit-identical to a local ``run_sweep`` of the same config for
any fleet size, worker arrival order, and crash/retry history — proved by
``tests/property/test_fabric_faults.py`` under injected drops, delays,
duplicates, crashes and coordinator restarts.  See ``docs/fabric.md``.
"""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.fabric.coordinator": ("FabricCoordinator",),
        "repro.fabric.protocol": (
            "PROTOCOL_VERSION",
            "FabricError",
            "cell_from_payload",
            "cell_to_payload",
            "config_from_payload",
            "config_to_payload",
            "records_from_payload",
            "records_to_payload",
        ),
        "repro.fabric.queue": ("DEFAULT_LEASE_TTL", "Lease", "LeaseQueue"),
        "repro.fabric.server": ("FabricHTTPServer",),
        "repro.fabric.transport": (
            "HttpTransport",
            "LocalTransport",
            "Transport",
            "TransportError",
        ),
        "repro.fabric.worker": ("FabricWorker", "WorkerCrashed", "WorkerStats"),
    },
)
