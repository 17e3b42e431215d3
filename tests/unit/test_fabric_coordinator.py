"""Unit tests for the fabric coordinator, wire protocol and HTTP server."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policies import EModelPolicy
from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import _run_cell, run_sweep, sweep_cells
from repro.fabric import (
    PROTOCOL_VERSION,
    FabricCoordinator,
    FabricError,
    FabricHTTPServer,
    FabricWorker,
    HttpTransport,
    LocalTransport,
    cell_from_payload,
    cell_to_payload,
    config_from_payload,
    config_to_payload,
    records_from_payload,
    records_to_payload,
)
from repro.fabric.coordinator import STATE_FILE_NAME
from repro.store import ExperimentStore

_CONFIG = replace(QUICK_SWEEP, node_counts=(50,), repetitions=2)
_CELLS = sweep_cells(_CONFIG, system="sync")


@pytest.fixture(scope="module")
def cell_records():
    """Each cell's true records, simulated once for the whole module."""
    return [_run_cell(cell) for cell in _CELLS]


class TestProtocolPayloads:
    def test_config_round_trips_through_json(self):
        import json

        payload = json.loads(json.dumps(config_to_payload(_CONFIG)))
        assert config_from_payload(payload) == _CONFIG

    def test_cell_round_trips_through_json(self):
        import json

        for cell in _CELLS:
            payload = json.loads(json.dumps(cell_to_payload(cell)))
            assert cell_from_payload(payload) == cell

    def test_records_round_trip_through_json(self, cell_records):
        import json

        payload = json.loads(json.dumps(records_to_payload(cell_records[0])))
        assert records_from_payload(payload) == cell_records[0]

    def test_custom_policy_factories_cannot_cross_the_wire(self):
        cell = replace(_CELLS[0], policies=(("custom", EModelPolicy),))
        with pytest.raises(FabricError, match="custom policy factories"):
            cell_to_payload(cell)


def _post_result(coordinator, grant, records, **overrides):
    payload = {
        "worker": "w1",
        "lease": grant["lease"],
        "index": grant["index"],
        "digest": grant["digest"],
        "records": records_to_payload(records),
    }
    payload.update(overrides)
    return coordinator.handle_request("result", payload)


class TestCoordinator:
    def test_claim_simulate_post_happy_path(self, cell_records):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        assert grant["status"] == "lease"
        cell = cell_from_payload(grant["cell"])
        assert cell == _CELLS[grant["index"]]
        response = _post_result(coordinator, grant, cell_records[grant["index"]])
        assert response == {"status": "committed"}
        assert coordinator.records_for(grant["index"]) == cell_records[grant["index"]]

    def test_duplicate_post_acknowledged_not_recommitted(self, cell_records):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        records = cell_records[grant["index"]]
        assert _post_result(coordinator, grant, records)["status"] == "committed"
        assert _post_result(coordinator, grant, records)["status"] == "duplicate"

    def test_digest_mismatch_is_rejected_and_charged(self, cell_records):
        coordinator = FabricCoordinator(_CELLS, max_attempts=1)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        response = _post_result(
            coordinator, grant, cell_records[grant["index"]], digest="f" * 64
        )
        assert response["status"] == "rejected"
        assert "digest mismatch" in response["reason"]
        # max_attempts=1: the single rejection quarantined the cell.
        assert grant["index"] in coordinator.quarantined

    def test_wrong_cells_records_are_rejected(self, cell_records):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        other = (grant["index"] + 1) % len(_CELLS)
        response = _post_result(coordinator, grant, cell_records[other])
        assert response["status"] == "rejected"
        assert "do not match cell" in response["reason"]

    def test_done_and_wait_responses(self, cell_records):
        coordinator = FabricCoordinator(_CELLS, lease_ttl=5.0)
        grants = [
            coordinator.handle_request("claim", {"worker": "w1"})
            for _ in range(len(_CELLS))
        ]
        wait = coordinator.handle_request("claim", {"worker": "w2"})
        assert wait["status"] == "wait"
        assert 0.0 < wait["retry_after"] <= 5.0
        for grant in grants:
            _post_result(coordinator, grant, cell_records[grant["index"]])
        done = coordinator.handle_request("claim", {"worker": "w2"})
        assert done == {
            "status": "done", "completed": len(_CELLS), "quarantined": 0,
        }
        assert coordinator.done is True

    def test_heartbeat_reports_validity(self):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        beat = coordinator.handle_request("heartbeat", {"lease": grant["lease"]})
        assert beat == {"status": "ok", "valid": True}
        stale = coordinator.handle_request("heartbeat", {"lease": "lease-404"})
        assert stale == {"status": "ok", "valid": False}

    def test_unknown_action_raises_fabric_error(self):
        coordinator = FabricCoordinator(_CELLS)
        with pytest.raises(FabricError, match="unknown fabric action"):
            coordinator.handle_request("shutdown", {})

    def test_status_snapshot_shape(self):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        status = coordinator.handle_request("status", {})
        assert status["total"] == len(_CELLS)
        assert status["done"] is False
        assert status["counts"]["leased"] == 1
        [lease] = status["active_leases"]
        assert lease["lease"] == grant["lease"]
        assert lease["worker"] == "w1"
        assert status["workers"]["w1"]["claims"] == 1

    def test_records_for_unfinished_cell_raises(self):
        coordinator = FabricCoordinator(_CELLS)
        with pytest.raises(KeyError):
            coordinator.records_for(0)


class TestRestart:
    def test_restart_resumes_from_store_delta(self, tmp_path, cell_records):
        with ExperimentStore(tmp_path / "store") as store:
            first = FabricCoordinator(_CELLS, store=store)
            grant = first.handle_request("claim", {"worker": "w1"})
            _post_result(first, grant, cell_records[grant["index"]])

            # A brand-new coordinator (the restart) sees the committed cell
            # as already done and only serves the remainder.
            second = FabricCoordinator(_CELLS, store=store)
            assert second.status()["counts"]["completed"] == 1
            assert second.records_for(grant["index"]) == cell_records[grant["index"]]
            remaining = {
                second.handle_request("claim", {"worker": "w2"})["index"]
                for _ in range(len(_CELLS) - 1)
            }
            assert grant["index"] not in remaining

    def test_restart_restores_failure_journal(self, tmp_path, cell_records):
        with ExperimentStore(tmp_path / "store") as store:
            first = FabricCoordinator(_CELLS, store=store, max_attempts=1)
            grant = first.handle_request("claim", {"worker": "w1"})
            _post_result(first, grant, cell_records[grant["index"]], digest="0" * 64)
            assert grant["index"] in first.quarantined
            assert (tmp_path / "store" / STATE_FILE_NAME).is_file()

            second = FabricCoordinator(_CELLS, store=store, max_attempts=1)
            assert second.quarantined.keys() == first.quarantined.keys()

    def test_no_resume_reserves_cached_cells_too(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            run_sweep(_CONFIG, system="sync", store=store)
            coordinator = FabricCoordinator(_CELLS, store=store, resume=False)
            assert coordinator.status()["counts"]["pending"] == len(_CELLS)


class TestHTTPServer:
    def test_full_protocol_over_loopback(self, cell_records):
        coordinator = FabricCoordinator(_CELLS)
        with FabricHTTPServer(coordinator) as server:
            transport = HttpTransport(server.url)
            grant = transport.request("claim", {"worker": "w1"})
            assert grant["status"] == "lease"
            assert cell_from_payload(grant["cell"]) == _CELLS[grant["index"]]
            response = transport.request(
                "result",
                {
                    "worker": "w1",
                    "lease": grant["lease"],
                    "index": grant["index"],
                    "digest": grant["digest"],
                    "records": records_to_payload(cell_records[grant["index"]]),
                },
            )
            assert response == {"status": "committed"}
            status = transport.request("status", {})
            assert status["counts"]["completed"] == 1
            transport.close()

    def test_unknown_action_is_a_404(self):
        from repro.fabric import TransportError

        coordinator = FabricCoordinator(_CELLS)
        with FabricHTTPServer(coordinator) as server:
            transport = HttpTransport(server.url)
            with pytest.raises(TransportError, match="404"):
                transport.request("frobnicate", {})
            transport.close()

    def test_local_transport_matches_direct_calls(self):
        coordinator = FabricCoordinator(_CELLS)
        transport = LocalTransport(coordinator)
        assert transport.request("status", {}) == coordinator.status()


class _OtherVersionTransport(LocalTransport):
    """A coordinator whose lease grants speak protocol version 2."""

    def __init__(self, coordinator) -> None:
        super().__init__(coordinator)
        self.actions: list[str] = []

    def request(self, action, payload):
        self.actions.append(action)
        response = super().request(action, payload)
        if response.get("status") == "lease":
            response["protocol_version"] = 2
        return response


class TestProtocolVersion:
    def test_lease_grants_carry_the_protocol_version(self):
        grant = FabricCoordinator(_CELLS).handle_request("claim", {"worker": "w1"})
        assert grant["protocol_version"] == PROTOCOL_VERSION

    def test_worker_refuses_a_grant_of_another_version(self):
        assert PROTOCOL_VERSION != 2
        coordinator = FabricCoordinator(_CELLS)
        transport = _OtherVersionTransport(coordinator)
        worker = FabricWorker(transport, heartbeats=False)
        with pytest.raises(FabricError) as raised:
            worker.run()
        message = str(raised.value)
        assert "version 2" in message and f"version {PROTOCOL_VERSION}" in message
        assert transport.actions == ["claim"]  # nothing simulated, nothing posted
        assert worker.stats.claims == 0
        assert coordinator.status()["counts"]["completed"] == 0


class TestCoordinatorTelemetry:
    """The extended status fields and the /metrics endpoint (docs/telemetry.md)."""

    def test_status_reports_queue_depth_and_attempts(self, cell_records):
        coordinator = FabricCoordinator(_CELLS, max_attempts=3)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        # One rejected result charges the cell's budget and requeues it.
        _post_result(coordinator, grant, cell_records[grant["index"]], digest="0" * 64)
        status = coordinator.status()
        assert status["queue_depth"] == status["counts"]["pending"]
        assert status["attempts"] == {str(grant["index"]): 1}
        assert status["oldest_lease_age_s"] is None  # nothing leased right now

    def test_status_reports_oldest_lease_age(self):
        coordinator = FabricCoordinator(_CELLS)
        coordinator.handle_request("claim", {"worker": "w1"})
        status = coordinator.status()
        assert status["oldest_lease_age_s"] is not None
        assert status["oldest_lease_age_s"] >= 0.0
        for stats in status["workers"].values():
            assert stats["last_seen_age_s"] >= 0.0

    def test_metrics_action_serves_the_registry(self, cell_records):
        coordinator = FabricCoordinator(_CELLS)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, grant, cell_records[grant["index"]])
        snapshot = coordinator.handle_request("metrics", {})
        assert snapshot["counters"]["fabric.claim_requests"] == 1
        assert snapshot["counters"]["fabric.lease_claims"] == 1
        assert snapshot["counters"]["fabric.results_committed"] == 1
        assert snapshot["gauges"]["fabric.completed_cells"] == 1
        assert snapshot["gauges"]["fabric.queue_depth"] == len(_CELLS) - 1
        assert "worker.w1.last_seen_age_s" in snapshot["gauges"]

    def test_duplicate_and_rejected_results_are_counted(self, cell_records):
        coordinator = FabricCoordinator(_CELLS, max_attempts=5)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, grant, cell_records[grant["index"]])
        _post_result(coordinator, grant, cell_records[grant["index"]])
        bad = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, bad, cell_records[bad["index"]], digest="0" * 64)
        counters = coordinator.handle_request("metrics", {})["counters"]
        assert counters["fabric.results_committed"] == 1
        assert counters["fabric.results_duplicate"] == 1
        assert counters["fabric.results_rejected"] == 1

    def test_metrics_endpoint_is_gated_behind_telemetry_flag(self):
        from repro.fabric import TransportError

        coordinator = FabricCoordinator(_CELLS)
        with FabricHTTPServer(coordinator) as server:
            transport = HttpTransport(server.url)
            with pytest.raises(TransportError, match="fabric serve --telemetry"):
                transport.request("metrics", {})
            transport.close()

    def test_metrics_endpoint_served_when_exposed(self):
        coordinator = FabricCoordinator(_CELLS)
        with FabricHTTPServer(coordinator, expose_metrics=True) as server:
            transport = HttpTransport(server.url)
            transport.request("claim", {"worker": "w1"})
            snapshot = transport.request("metrics", {})
            transport.close()
        assert snapshot["counters"]["fabric.lease_claims"] == 1
        assert snapshot["gauges"]["fabric.leased_cells"] == 1
