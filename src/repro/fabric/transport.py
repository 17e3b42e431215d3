"""Transports: how a worker reaches its coordinator.

The worker loop is transport-agnostic — it sees only
``request(action, payload) -> response`` — so the same
:class:`~repro.fabric.worker.FabricWorker` runs over loopback HTTP
(:class:`HttpTransport`), directly in-process (:class:`LocalTransport`),
or through a fault-injecting wrapper (the test harness's ``FlakyTransport``).

Every transport failure — connection refused, dropped response, non-200
status — surfaces as :class:`TransportError`.  Workers treat it as
retryable: the request may or may not have been processed, which is
exactly why the coordinator's result commits are idempotent.
"""

from __future__ import annotations

import http.client
import json
from typing import TYPE_CHECKING, Mapping
from urllib.parse import urlsplit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.coordinator import FabricCoordinator

__all__ = ["Transport", "TransportError", "LocalTransport", "HttpTransport"]


class TransportError(RuntimeError):
    """A request that may or may not have reached the coordinator."""


class Transport:
    """One coordinator connection: ``request(action, payload) -> response``."""

    def request(self, action: str, payload: Mapping) -> dict:
        """Send one protocol request and return the decoded response."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (optional)."""


class LocalTransport(Transport):
    """Direct in-process calls into a coordinator (no sockets, no copies).

    The zero-overhead transport of worker threads sharing the
    coordinator's process (the fault suite's deterministic runs): requests
    are plain method calls under the coordinator's lock.
    """

    def __init__(self, coordinator: "FabricCoordinator") -> None:
        self._coordinator = coordinator

    def request(self, action: str, payload: Mapping) -> dict:
        return self._coordinator.handle_request(action, dict(payload))


class HttpTransport(Transport):
    """JSON-over-HTTP client for a :class:`~repro.fabric.server.FabricHTTPServer`.

    One short-lived connection per request (the protocol is a handful of
    small messages per cell, so connection reuse buys nothing and a stale
    keep-alive socket after a coordinator restart would cost a retry).
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"fabric transport speaks plain http, got {url!r}")
        if not parts.hostname:
            raise ValueError(f"no host in fabric url {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    def request(self, action: str, payload: Mapping) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = json.dumps(dict(payload))
            connection.request(
                "POST",
                f"/{action}",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            data = response.read()
            if response.status != 200:
                raise TransportError(
                    f"{action}: HTTP {response.status} "
                    f"{data.decode('utf-8', 'replace')[:200]}"
                )
            return json.loads(data)
        except (OSError, http.client.HTTPException, json.JSONDecodeError) as error:
            raise TransportError(f"{action}: {error}") from error
        finally:
            connection.close()
