"""The fabric coordinator: missing-cell partitioning, leases, atomic commits.

One coordinator owns one grid of :class:`~repro.experiments.runner.SweepCell`
work items.  At start-up it partitions the grid against the store's
content-addressed cache keys — already-cached cells are completed before any
worker connects, so a **coordinator restart is just a re-partition**: the
queue is rebuilt from the store delta and the sweep continues where it
stopped, with failure history (attempt counts, quarantined cells) restored
from a small JSON state file next to the store.

Workers talk to the coordinator through four request types (served over
HTTP by :class:`~repro.fabric.server.FabricHTTPServer`, or called directly
via :class:`~repro.fabric.transport.LocalTransport`):

========== ============================================= =================================
action     request payload                               response
========== ============================================= =================================
claim      ``{"worker"}``                                ``lease`` grant / ``wait`` / ``done``
heartbeat  ``{"lease"}``                                  ``{"status": "ok", "valid"}``
result     ``{"lease", "index", "digest", "records"}``   ``committed`` / ``duplicate`` / ``rejected``
status     ``{}``                                        full fleet/queue status object
metrics    ``{}``                                        :class:`~repro.obs.metrics.MetricsRegistry` snapshot
========== ============================================= =================================

A posted result is **validated before it is committed**: the echoed digest
must match the coordinator's own cell key, the record batch must decode,
and its shape (policy line-up, cell coordinates) must match the leased
cell.  A valid result commits atomically to the store keyed by the cell
digest — so duplicate and late posts are idempotent by construction — and a
bad result charges the lease's retry budget exactly like a crash, feeding
the poison-cell quarantine.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.experiments.runner import default_policies
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    FabricError,
    cell_to_payload,
    records_from_payload,
)
from repro.fabric.queue import DEFAULT_LEASE_TTL, LeaseQueue
from repro.obs.metrics import MetricsRegistry
from repro.store import cell_key_for
from repro.utils.serialization import atomic_write_text, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import RunRecord, SweepCell
    from repro.store import ExperimentStore

__all__ = ["FabricCoordinator", "STATE_FILE_NAME"]

#: Name of the queue-state journal written next to the store's index.
STATE_FILE_NAME = "fabric-state.json"


class FabricCoordinator:
    """Serve one grid of sweep cells to a worker fleet.

    Parameters
    ----------
    cells:
        The grid in serial order; positions in this sequence are the cell
        indices of the whole protocol.
    store:
        The :class:`~repro.store.ExperimentStore` results commit to, through
        :meth:`ExperimentStore.put` (content-keyed, so commits are
        idempotent).  Already-cached cells are completed at start-up
        (``resume``), and the failure history persists next to it across
        coordinator restarts.
    resume:
        Complete cells already present in the store at start-up (default).
    lease_ttl, max_attempts, backoff_s, clock:
        Lease state-machine knobs, passed to :class:`LeaseQueue`.
    """

    def __init__(
        self,
        cells: "Sequence[SweepCell]",
        *,
        store: "ExperimentStore",
        resume: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = 5,
        backoff_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._cells = list(cells)
        self._store = store
        self._clock = clock
        self._lock = threading.RLock()
        self._line_ups: list[tuple[str, ...]] = []
        self._keys = []
        for cell in self._cells:
            if cell.policies is not None:
                names = tuple(name for name, _ in cell.policies)
            else:
                names = tuple(default_policies(cell.config, cell.system))
            self._line_ups.append(names)
            self._keys.append(
                cell_key_for(
                    cell.config,
                    system=cell.system,
                    rate=cell.rate,
                    num_nodes=cell.num_nodes,
                    repetition=cell.repetition,
                    policies=names,
                )
            )
        self._workers: dict[str, dict[str, float | int]] = {}
        self._started_at = clock()
        #: Fleet metrics (claims, heartbeats, commits, queue gauges) — the
        #: source of the extended ``status`` fields and, when the HTTP
        #: server exposes it, of the ``/metrics`` endpoint.
        self.metrics = MetricsRegistry()
        self._queue = LeaseQueue(
            range(len(self._cells)),
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            clock=clock,
        )
        # Restart persistence: failure history first (so a quarantined cell
        # stays quarantined), then the store delta (so a *completed* cell —
        # even one that was quarantined before a late result rescued it —
        # is simply done).
        self._load_state()
        if resume:
            for index, key in enumerate(self._keys):
                if store.contains(key):
                    self._queue.complete(index)

    # -- fleet-facing API --------------------------------------------------

    def handle_request(self, action: str, payload: Mapping) -> dict:
        """Dispatch one protocol request; the transports' single entry point."""
        with self._lock:
            if action == "claim":
                return self._claim(payload)
            if action == "heartbeat":
                return self._heartbeat(payload)
            if action == "result":
                return self._result(payload)
            if action == "status":
                return self.status()
            if action == "metrics":
                return self.metrics_snapshot()
            raise FabricError(
                f"unknown fabric action {action!r}; expected claim, "
                "heartbeat, result, status or metrics"
            )

    def tick(self) -> None:
        """Advance lease expiry without a worker request (the serve loop)."""
        with self._lock:
            before = self._queue.counts()
            self._queue.expire()
            if self._queue.counts() != before:
                self._save_state()

    # -- request handlers (lock held) --------------------------------------

    def _claim(self, payload: Mapping) -> dict:
        worker = str(payload.get("worker", "anonymous"))
        now = self._clock()
        stats = self._workers.setdefault(
            worker, {"claims": 0, "completed": 0, "failures": 0, "last_seen": now}
        )
        stats["last_seen"] = now
        self.metrics.counter("fabric.claim_requests").inc()
        lease = self._queue.claim(worker, now)
        if lease is not None:
            stats["claims"] += 1
            self.metrics.counter("fabric.lease_claims").inc()
            return {
                "status": "lease",
                "protocol_version": PROTOCOL_VERSION,
                "lease": lease.lease_id,
                "index": lease.index,
                "digest": self._keys[lease.index].digest,
                "lease_ttl": self._queue.lease_ttl,
                "cell": cell_to_payload(self._cells[lease.index]),
            }
        if self._queue.done:
            counts = self._queue.counts()
            return {
                "status": "done",
                "completed": counts["completed"],
                "quarantined": counts["quarantined"],
            }
        return {
            "status": "wait",
            "retry_after": self._queue.next_event_in(now),
        }

    def _heartbeat(self, payload: Mapping) -> dict:
        lease_id = str(payload.get("lease", ""))
        now = self._clock()
        # Credit the beat to the lease's worker before the heartbeat can
        # expire it — liveness is about who pinged, not whether in time.
        lease = self._queue.lease(lease_id)
        if lease is not None and lease.worker in self._workers:
            self._workers[lease.worker]["last_seen"] = now
        self.metrics.counter("fabric.heartbeats").inc()
        valid = self._queue.heartbeat(lease_id, now)
        return {"status": "ok", "valid": valid}

    def _result(self, payload: Mapping) -> dict:
        now = self._clock()
        worker = str(payload.get("worker", "anonymous"))
        stats = self._workers.setdefault(
            worker, {"claims": 0, "completed": 0, "failures": 0, "last_seen": now}
        )
        stats["last_seen"] = now
        lease_id = str(payload.get("lease", ""))
        try:
            index = int(payload["index"])
            if not 0 <= index < len(self._cells):
                raise ValueError(f"cell index {index} out of range")
            records = self._validate_result(index, payload)
        except (KeyError, TypeError, ValueError) as error:
            # A malformed or wrong result spends the lease's retry budget
            # exactly like a crash: repeat offenders poison-quarantine.
            self._queue.fail(lease_id, f"rejected result: {error}", now)
            stats["failures"] += 1
            self.metrics.counter("fabric.results_rejected").inc()
            self._save_state()
            return {"status": "rejected", "reason": str(error)}
        outcome = self._queue.complete(index, now)
        if outcome == "committed":
            self._store.put(self._keys[index], records)
            stats["completed"] += 1
            self.metrics.counter("fabric.results_committed").inc()
            self._save_state()
        else:
            self.metrics.counter("fabric.results_duplicate").inc()
        return {"status": outcome}

    def _validate_result(self, index: int, payload: Mapping) -> "list[RunRecord]":
        """Decode and cross-check one posted record batch against its cell."""
        digest = payload.get("digest")
        expected = self._keys[index].digest
        if digest != expected:
            raise ValueError(
                f"digest mismatch for cell {index}: posted {str(digest)[:16]!r}, "
                f"expected {expected[:16]!r} (stale config or wrong cell)"
            )
        records = records_from_payload(payload["records"])
        cell = self._cells[index]
        names = self._line_ups[index]
        if tuple(r.policy for r in records) != names:
            raise ValueError(
                f"policy line-up mismatch for cell {index}: got "
                f"{[r.policy for r in records]}, expected {list(names)}"
            )
        for record in records:
            if (
                record.system != cell.system
                or record.rate != cell.rate
                or record.num_nodes != cell.num_nodes
                or record.repetition != cell.repetition
            ):
                raise ValueError(
                    f"record coordinates do not match cell {index}: "
                    f"({record.system}, r={record.rate}, n={record.num_nodes}, "
                    f"rep={record.repetition}) vs ({cell.system}, "
                    f"r={cell.rate}, n={cell.num_nodes}, rep={cell.repetition})"
                )
        return records

    # -- results and status ------------------------------------------------

    @property
    def quarantined(self) -> dict[int, str]:
        """Quarantined cell indices with their final failure reason."""
        with self._lock:
            return self._queue.quarantined

    def status(self) -> dict:
        """The fleet-monitoring snapshot (the ``fabric status`` target).

        ``queue_depth`` (claimable backlog), ``oldest_lease_age_s`` (the
        longest-running grant — a stuck worker shows up here first) and the
        per-cell ``attempts`` map (str-keyed, JSON-proof) come from the
        same numbers :attr:`metrics` tracks; the queue gauges are refreshed
        into the registry on every status read.
        """
        with self._lock:
            self._queue.expire()
            counts = self._queue.counts()
            now = self._clock()
            active = self._queue.active_leases()
            oldest = max((now - lease.granted_at for lease in active), default=None)
            self._refresh_queue_gauges(counts, oldest)
            return {
                "protocol_version": PROTOCOL_VERSION,
                "total": len(self._cells),
                "uptime_s": round(now - self._started_at, 3),
                "lease_ttl": self._queue.lease_ttl,
                "max_attempts": self._queue.max_attempts,
                "done": self._queue.done,
                "counts": counts,
                "queue_depth": counts["pending"],
                "oldest_lease_age_s": (
                    None if oldest is None else round(oldest, 3)
                ),
                "attempts": {
                    str(index): count
                    for index, count in sorted(self._queue.attempts.items())
                },
                "active_leases": [
                    {
                        "lease": lease.lease_id,
                        "index": lease.index,
                        "worker": lease.worker,
                        "expires_in": round(lease.deadline - now, 3),
                    }
                    for lease in active
                ],
                "quarantined_cells": [
                    {"index": index, "digest": self._keys[index].digest, "reason": reason}
                    for index, reason in sorted(self._queue.quarantined.items())
                ],
                # Liveness crosses the wire as an age, never as this
                # process's monotonic ``last_seen`` stamp.
                "workers": {
                    name: {
                        "claims": stats["claims"],
                        "completed": stats["completed"],
                        "failures": stats["failures"],
                        "last_seen_age_s": round(now - stats["last_seen"], 3),
                    }
                    for name, stats in self._workers.items()
                },
            }

    def metrics_snapshot(self) -> dict:
        """The metrics registry's snapshot with the queue gauges refreshed.

        The payload of the ``metrics`` action (``/metrics`` over HTTP when
        the server exposes it): counters accumulated by the request
        handlers plus point-in-time queue/worker gauges.
        """
        with self._lock:
            self._queue.expire()
            counts = self._queue.counts()
            now = self._clock()
            active = self._queue.active_leases()
            oldest = max((now - lease.granted_at for lease in active), default=None)
            self._refresh_queue_gauges(counts, oldest)
            return self.metrics.snapshot()

    def _refresh_queue_gauges(
        self, counts: dict[str, int], oldest: float | None
    ) -> None:
        """Mirror the queue partition into the registry (lock held)."""
        metrics = self.metrics
        metrics.gauge("fabric.queue_depth").set(counts["pending"])
        metrics.gauge("fabric.leased_cells").set(counts["leased"])
        metrics.gauge("fabric.completed_cells").set(counts["completed"])
        metrics.gauge("fabric.quarantined_cells").set(counts["quarantined"])
        metrics.gauge("fabric.oldest_lease_age_s").set(
            0.0 if oldest is None else oldest
        )
        metrics.gauge("fabric.retry_attempts").set(
            sum(self._queue.attempts.values())
        )
        now = self._clock()
        for name, stats in self._workers.items():
            metrics.gauge(f"worker.{name}.last_seen_age_s").set(
                max(now - stats["last_seen"], 0.0)
            )

    # -- restart persistence ----------------------------------------------

    def _save_state(self) -> None:
        """Journal failure history, keyed by content digest (grid-shape-proof)."""
        state = {
            "version": 1,
            "attempts": {
                self._keys[i].digest: n for i, n in self._queue.attempts.items()
            },
            "quarantined": {
                self._keys[i].digest: reason
                for i, reason in self._queue.quarantined.items()
            },
        }
        atomic_write_text(self._store.root / STATE_FILE_NAME, canonical_json(state))

    def _load_state(self) -> None:
        path = self._store.root / STATE_FILE_NAME
        if not path.is_file():
            return
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return  # a torn or missing journal only loses failure history
        by_digest = {key.digest: index for index, key in enumerate(self._keys)}
        attempts = {
            by_digest[d]: int(n)
            for d, n in state.get("attempts", {}).items()
            if d in by_digest
        }
        quarantined = {
            by_digest[d]: str(reason)
            for d, reason in state.get("quarantined", {}).items()
            if d in by_digest
        }
        self._queue.preload(attempts, quarantined)
