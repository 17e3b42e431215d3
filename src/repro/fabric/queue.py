"""The lease state machine: a work-queue of cells with time-bounded leases.

Every cell of a fabric run is always in exactly one of four states:

``pending``
    Waiting to be claimed.  Requeued cells carry a ``not_before`` time
    (exponential backoff on the attempt count), so a flapping cell does not
    monopolise the fleet.
``leased``
    Granted to one worker under a lease with a deadline.  Heartbeats extend
    the deadline; a lease whose deadline passes is *expired* — the cell goes
    back to ``pending`` (or to quarantine once its retry budget is spent).
``completed``
    A validated result was committed.  Completion is terminal and
    idempotent: the first commit wins, every later post of the same cell is
    acknowledged as a duplicate and changes nothing.
``quarantined``
    The cell failed (lease expiry or rejected result) ``max_attempts``
    times — the poison-cell fence that keeps one bad cell from wedging the
    whole sweep.  A *valid* late result still rescues a quarantined cell:
    results are deterministic, so a correct commit is correct no matter how
    battered its delivery history.

The queue is deliberately free of I/O, wall clocks and threads: time is an
injected ``clock`` callable and every transition is a plain method call, so
the whole machine can be fuzzed deterministically
(``tests/property/test_fabric_lease_fuzz.py``) and the coordinator can wrap
it in its own locking and persistence.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.obs.bus import EVENT_BUS

__all__ = ["Lease", "LeaseQueue", "DEFAULT_LEASE_TTL"]

#: Default lease time budget (seconds): a worker must complete or heartbeat
#: within this window or its cell is handed to someone else.
DEFAULT_LEASE_TTL = 30.0


@dataclass(frozen=True)
class Lease:
    """One time-bounded grant of one cell to one worker."""

    lease_id: str
    index: int
    worker: str
    granted_at: float
    deadline: float


class LeaseQueue:
    """Claim/heartbeat/complete/fail/expire over a fixed set of cell indices.

    Parameters
    ----------
    indices:
        The cell indices this queue manages (each starts ``pending``).
    lease_ttl:
        Seconds a lease stays valid without a heartbeat.
    max_attempts:
        Failed attempts (expiries + rejections) before a cell is
        quarantined.
    backoff_s:
        Base requeue delay; attempt ``k`` waits ``backoff_s * 2**(k-1)``.
    clock:
        Monotonic time source (injected for deterministic tests).
    """

    def __init__(
        self,
        indices: Iterable[int],
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = 5,
        backoff_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._clock = clock
        self._indices = sorted(set(indices))
        #: index -> state name; the single source of truth for the partition.
        self._state: dict[int, str] = {i: "pending" for i in self._indices}
        #: (not_before, index) min-heap with lazy invalidation: an entry is
        #: live only while its index is still pending *and* matches the
        #: recorded not_before (a requeue supersedes older entries).
        self._heap: list[tuple[float, int]] = [(0.0, i) for i in self._indices]
        heapq.heapify(self._heap)
        self._not_before: dict[int, float] = {i: 0.0 for i in self._indices}
        self._leases: dict[str, Lease] = {}
        self._lease_of: dict[int, str] = {}
        self._attempts: dict[int, int] = {}
        self._quarantine_reason: dict[int, str] = {}
        self._commits: dict[int, int] = {}
        self._next_lease = 1

    # -- introspection -----------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        """All managed cell indices (ascending)."""
        return tuple(self._indices)

    def state_of(self, index: int) -> str:
        """``"pending" | "leased" | "completed" | "quarantined"``."""
        return self._state[index]

    def counts(self) -> dict[str, int]:
        """Cell count per state (the partition, summing to ``len(indices)``)."""
        counts = {"pending": 0, "leased": 0, "completed": 0, "quarantined": 0}
        for state in self._state.values():
            counts[state] += 1
        return counts

    @property
    def done(self) -> bool:
        """No work left: every cell is completed or quarantined."""
        return all(s in ("completed", "quarantined") for s in self._state.values())

    @property
    def attempts(self) -> dict[int, int]:
        """Failed-attempt count per cell (only cells that ever failed)."""
        return dict(self._attempts)

    @property
    def quarantined(self) -> dict[int, str]:
        """Quarantined cells with the reason of their final failure."""
        return dict(self._quarantine_reason)

    def active_leases(self) -> list[Lease]:
        """Currently granted leases (expired ones are reaped on access)."""
        self.expire()
        return sorted(self._leases.values(), key=lambda lease: lease.index)

    def lease(self, lease_id: str) -> Lease | None:
        """The live lease with this id, or ``None`` (no expiry reap)."""
        return self._leases.get(lease_id)

    def next_event_in(self, now: float | None = None) -> float:
        """Seconds until the next lease deadline or backoff release.

        The coordinator's ``wait`` hint: how long an idle worker should
        sleep before re-claiming.  ``0.0`` when something is claimable right
        now (or the queue is done — re-claim immediately to learn that).
        """
        now = self._clock() if now is None else now
        horizons = [
            self._not_before[i] for i, s in self._state.items() if s == "pending"
        ]
        horizons.extend(lease.deadline for lease in self._leases.values())
        if not horizons:
            return 0.0
        return max(0.0, min(horizons) - now)

    # -- transitions -------------------------------------------------------

    def claim(self, worker: str, now: float | None = None) -> Lease | None:
        """Grant the lowest pending index to ``worker``, or ``None``.

        Expired leases are reaped first, so a single polling worker is
        enough to drive the whole requeue machinery.
        """
        now = self._clock() if now is None else now
        self.expire(now)
        while self._heap:
            not_before, index = self._heap[0]
            if self._state.get(index) != "pending" or self._not_before[index] != not_before:
                heapq.heappop(self._heap)  # stale entry
                continue
            if not_before > now:
                return None  # earliest pending cell is still backing off
            heapq.heappop(self._heap)
            lease = Lease(
                lease_id=f"lease-{self._next_lease}",
                index=index,
                worker=worker,
                granted_at=now,
                deadline=now + self.lease_ttl,
            )
            self._next_lease += 1
            self._state[index] = "leased"
            self._leases[lease.lease_id] = lease
            self._lease_of[index] = lease.lease_id
            if EVENT_BUS.active:
                from repro.obs.events import LeaseClaimed

                EVENT_BUS.emit(LeaseClaimed(index, worker, lease.lease_id))
            return lease
        return None

    def heartbeat(self, lease_id: str, now: float | None = None) -> bool:
        """Extend a live lease's deadline; ``False`` if it no longer exists.

        A ``False`` return tells the worker its lease expired (the cell has
        been requeued) and any in-progress work should be abandoned — though
        posting the result anyway is harmless, by idempotent completion.
        """
        now = self._clock() if now is None else now
        self.expire(now)
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        extended = replace(lease, deadline=now + self.lease_ttl)
        self._leases[lease_id] = extended
        return True

    def complete(self, index: int, now: float | None = None) -> str:
        """Mark ``index`` completed; returns ``"committed"`` or ``"duplicate"``.

        Idempotent and state-agnostic on purpose: a late post (lease already
        expired and the cell requeued — or even re-leased to another worker,
        or quarantined) still commits, because fabric results are
        deterministic — the *first* valid result is the only result.  Every
        subsequent post is acknowledged as a duplicate and changes nothing.
        """
        if index not in self._state:
            raise KeyError(f"unknown cell index {index}")
        if self._state[index] == "completed":
            return "duplicate"
        self._release_lease_of(index)
        self._quarantine_reason.pop(index, None)
        self._state[index] = "completed"
        self._commits[index] = self._commits.get(index, 0) + 1
        return "committed"

    def fail(self, lease_id: str, reason: str, now: float | None = None) -> None:
        """Explicitly fail a live lease (e.g. the worker posted garbage).

        Unknown lease ids are ignored: the lease may already have expired,
        which charged the cell's budget through the same path.
        """
        now = self._clock() if now is None else now
        lease = self._leases.get(lease_id)
        if lease is None:
            return
        self._requeue(lease, reason, now, expired=False)

    def expire(self, now: float | None = None) -> list[Lease]:
        """Reap every lease whose deadline passed; returns the reaped leases."""
        now = self._clock() if now is None else now
        expired = [l for l in self._leases.values() if l.deadline <= now]
        for lease in expired:
            self._requeue(
                lease, f"lease expired (worker {lease.worker!r})", now, expired=True
            )
        return expired

    # -- persistence hooks -------------------------------------------------

    def preload(self, attempts: dict[int, int], quarantined: dict[int, str]) -> None:
        """Restore failure history (coordinator restart) before any claim.

        Quarantined cells leave ``pending`` immediately; attempt counts pick
        up where the previous coordinator left off, so a restart never
        resets a poison cell's budget.
        """
        for index, count in attempts.items():
            if index in self._state:
                self._attempts[index] = max(self._attempts.get(index, 0), count)
        for index, reason in quarantined.items():
            if index in self._state and self._state[index] == "pending":
                self._state[index] = "quarantined"
                self._quarantine_reason[index] = reason

    # -- internals ---------------------------------------------------------

    def _release_lease_of(self, index: int) -> None:
        lease_id = self._lease_of.pop(index, None)
        if lease_id is not None:
            self._leases.pop(lease_id, None)

    def _requeue(
        self, lease: Lease, reason: str, now: float, *, expired: bool = True
    ) -> None:
        index = lease.index
        self._release_lease_of(index)
        if self._state.get(index) != "leased":  # pragma: no cover - guard
            return
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if EVENT_BUS.active:
            from repro.obs.events import LeaseExpired, LeaseFailed

            if expired:
                EVENT_BUS.emit(LeaseExpired(index, lease.worker, attempts))
            else:
                EVENT_BUS.emit(LeaseFailed(index, lease.worker, reason, attempts))
        if attempts >= self.max_attempts:
            self._state[index] = "quarantined"
            self._quarantine_reason[index] = (
                f"{reason} — attempt {attempts}/{self.max_attempts}"
            )
            if EVENT_BUS.active:
                from repro.obs.events import CellQuarantined

                EVENT_BUS.emit(
                    CellQuarantined(
                        index,
                        f"{reason} — attempt {attempts}/{self.max_attempts}",
                        attempts,
                    )
                )
            return
        not_before = now + self.backoff_s * (2 ** (attempts - 1))
        self._state[index] = "pending"
        self._not_before[index] = not_before
        heapq.heappush(self._heap, (not_before, index))
