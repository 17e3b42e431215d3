"""The fabric worker: claim a lease, simulate the cell, post the records.

A worker is a dumb, restartable loop — all correctness lives in the
determinism contract and the coordinator's validation.  The worker claims a
lease, reconstructs the :class:`~repro.experiments.runner.SweepCell` from
the grant's JSON payload, runs it through the ordinary cell executor
(:func:`repro.experiments.runner._run_cell` — the *same* code path as a
local sweep, which is what makes fabric records bit-identical to local
ones), and posts the records back under the lease's digest.

Failure handling is deliberately simple:

* transport errors are retried (claims indefinitely — the coordinator may
  not be up yet; result posts a bounded number of times, after which the
  cell is abandoned to lease expiry and someone else's retry);
* a ``wait`` response sleeps for the coordinator's hint and re-claims;
* a lease grant of another protocol version raises
  :class:`~repro.fabric.protocol.FabricError` before anything is simulated;
* long cells are kept alive by a heartbeat thread pinging every
  ``lease_ttl / 3`` seconds while the simulation runs.

The ``simulate`` / ``post`` seams are overridable, which is how the fault
harness (``FlakyWorker`` in ``tests/property/conftest.py``) injects crashes
at precise points; :class:`WorkerCrashed` is the crash signal such
harnesses raise — the run loop never catches it, exactly like a real
process death.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.experiments.runner import _run_cell
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    FabricError,
    cell_from_payload,
    records_to_payload,
)
from repro.fabric.transport import Transport, TransportError
from repro.obs import events as _events
from repro.obs.bus import EVENT_BUS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import RunRecord, SweepCell

__all__ = ["FabricWorker", "WorkerStats", "WorkerCrashed"]


class WorkerCrashed(RuntimeError):
    """Raised by fault-injection harnesses to simulate a worker death.

    The worker loop never catches it: a crash kills the worker with its
    lease unreleased, and recovery happens coordinator-side (lease expiry,
    requeue) — the failure mode the fabric exists to survive.
    """


@dataclass
class WorkerStats:
    """What one worker run did (the ``fabric work`` exit summary)."""

    claims: int = 0
    completed: int = 0
    duplicates: int = 0
    rejected: int = 0
    transport_errors: int = 0
    abandoned: int = 0
    policies_run: dict[str, int] = field(default_factory=dict)


class FabricWorker:
    """One claim-simulate-post loop against a coordinator transport.

    Parameters
    ----------
    transport:
        The coordinator connection (HTTP, local, or a fault wrapper).
    name:
        Worker identity reported on every claim (fleet monitoring).
    poll_interval:
        Base sleep between retries; ``wait`` hints are clamped to
        ``[poll_interval, max_wait]``.
    post_retries:
        Transport retries per result post before abandoning the cell to
        lease expiry.
    claim_patience:
        Consecutive claim transport errors before the worker gives up and
        re-raises (a coordinator that was up and died stays down; one that
        is not up *yet* only costs a few failed claims).  ``None`` retries
        forever.
    heartbeat_interval:
        Seconds between keep-alive pings while simulating; ``None``
        disables the heartbeat thread (deterministic single-threaded
        tests).  Defaults to a third of the lease TTL from each grant.
    sleep:
        Injected sleeper (tests pass the manual clock's ``advance``).
    """

    def __init__(
        self,
        transport: Transport,
        *,
        name: str = "worker",
        poll_interval: float = 0.1,
        max_wait: float = 2.0,
        post_retries: int = 3,
        claim_patience: int | None = 100,
        heartbeat_interval: float | None = None,
        heartbeats: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.transport = transport
        self.name = name
        self.poll_interval = poll_interval
        self.max_wait = max_wait
        self.post_retries = post_retries
        self.claim_patience = claim_patience
        self.heartbeat_interval = heartbeat_interval
        self.heartbeats = heartbeats
        self._sleep = sleep
        self.stats = WorkerStats()

    def run(self) -> WorkerStats:
        """Work until the coordinator reports the grid done."""
        consecutive_errors = 0
        while True:
            try:
                response = self.transport.request("claim", {"worker": self.name})
            except TransportError:
                self.stats.transport_errors += 1
                consecutive_errors += 1
                if (
                    self.claim_patience is not None
                    and consecutive_errors >= self.claim_patience
                ):
                    raise
                self._sleep(self.poll_interval)
                continue
            consecutive_errors = 0
            status = response.get("status")
            if status == "done":
                return self.stats
            if status == "wait":
                hint = float(response.get("retry_after", self.poll_interval))
                self._sleep(min(max(hint, self.poll_interval), self.max_wait))
                continue
            if status != "lease":
                self.stats.transport_errors += 1
                self._sleep(self.poll_interval)
                continue
            version = response.get("protocol_version")
            if version != PROTOCOL_VERSION:
                raise FabricError(
                    f"lease grant speaks fabric protocol version {version!r}, "
                    f"this worker speaks version {PROTOCOL_VERSION}"
                )
            self.stats.claims += 1
            cell = cell_from_payload(response["cell"])
            records = self.simulate(cell, response)
            for record in records:
                count = self.stats.policies_run.get(record.policy, 0)
                self.stats.policies_run[record.policy] = count + 1
            self.post(
                {
                    "worker": self.name,
                    "lease": response["lease"],
                    "index": response["index"],
                    "digest": response["digest"],
                    "records": records_to_payload(records),
                }
            )

    # -- overridable seams -------------------------------------------------

    def simulate(self, cell: "SweepCell", grant: Mapping) -> "list[RunRecord]":
        """Run one cell, heartbeating the lease while it executes."""
        if not self.heartbeats:
            return _run_cell(cell)
        interval = self.heartbeat_interval
        if interval is None:
            interval = max(float(grant.get("lease_ttl", 30.0)) / 3.0, 0.05)
        stop = threading.Event()

        def _beat() -> None:
            while not stop.wait(interval):
                try:
                    response = self.transport.request(
                        "heartbeat", {"lease": grant["lease"]}
                    )
                except TransportError:
                    continue  # the next beat (or lease expiry) sorts it out
                # Emitted worker-side only (the coordinator counts beats in
                # its metrics registry), so workers sharing the
                # coordinator's process never double-report a heartbeat.
                if EVENT_BUS.active:
                    EVENT_BUS.emit(
                        _events.WorkerHeartbeat(
                            self.name,
                            str(grant["lease"]),
                            bool(response.get("valid", False)),
                        )
                    )

        beater = threading.Thread(target=_beat, name=f"{self.name}-heartbeat", daemon=True)
        beater.start()
        try:
            return _run_cell(cell)
        finally:
            stop.set()
            beater.join()

    def post(self, payload: dict) -> None:
        """Post one result with bounded retries (duplicates are safe)."""
        for attempt in range(self.post_retries):
            try:
                response = self.transport.request("result", payload)
            except TransportError:
                self.stats.transport_errors += 1
                if attempt + 1 < self.post_retries:
                    self._sleep(self.poll_interval)
                continue
            status = response.get("status")
            if status == "committed":
                self.stats.completed += 1
            elif status == "duplicate":
                self.stats.duplicates += 1
            else:
                self.stats.rejected += 1
            return
        # Every retry failed in transit: drop the cell — its lease will
        # expire and the coordinator will release it (possibly to us).
        self.stats.abandoned += 1
