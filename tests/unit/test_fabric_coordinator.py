"""Unit tests for the fabric coordinator, worker, wire protocol and HTTP server."""

from __future__ import annotations

import http.client
import json
from dataclasses import replace

import pytest

from repro.core.policies import EModelPolicy
from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import _run_cell, default_policies, run_sweep, sweep_cells
from repro.fabric import (
    PROTOCOL_VERSION,
    FabricCoordinator,
    FabricError,
    FabricHTTPServer,
    FabricWorker,
    HttpTransport,
    LocalTransport,
    Transport,
    TransportError,
    cell_from_payload,
    cell_to_payload,
    config_from_payload,
    config_to_payload,
    records_from_payload,
    records_to_payload,
)
from repro.fabric.coordinator import STATE_FILE_NAME
from repro.store import ExperimentStore
from tests.fabric_fleet import stored_records

_CONFIG = replace(QUICK_SWEEP, node_counts=(50,), repetitions=2)
_CELLS = sweep_cells(_CONFIG, system="sync")


@pytest.fixture()
def store(tmp_path):
    """The store every coordinator commits to."""
    with ExperimentStore(tmp_path / "store") as store:
        yield store


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
    def test_claim_simulate_post_happy_path(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        assert grant["status"] == "lease"
        cell = cell_from_payload(grant["cell"])
        assert cell == _CELLS[grant["index"]]
        response = _post_result(coordinator, grant, cell_records[grant["index"]])
        assert response == {"status": "committed"}
        assert stored_records(store, _CELLS)[grant["index"]] == cell_records[grant["index"]]

    def test_duplicate_post_acknowledged_not_recommitted(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        records = cell_records[grant["index"]]
        assert _post_result(coordinator, grant, records)["status"] == "committed"
        assert _post_result(coordinator, grant, records)["status"] == "duplicate"

    def test_digest_mismatch_is_rejected_and_charged(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=1)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        response = _post_result(
            coordinator, grant, cell_records[grant["index"]], digest="f" * 64
        )
        assert response["status"] == "rejected"
        assert "digest mismatch" in response["reason"]
        # max_attempts=1: the single rejection quarantined the cell.
        assert grant["index"] in coordinator.quarantined

    def test_wrong_cells_records_are_rejected(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        other = (grant["index"] + 1) % len(_CELLS)
        response = _post_result(coordinator, grant, cell_records[other])
        assert response["status"] == "rejected"
        assert "do not match cell" in response["reason"]

    def test_done_and_wait_responses(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, lease_ttl=5.0)
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
        assert coordinator.status()["done"] is True

    def test_heartbeat_reports_validity(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        beat = coordinator.handle_request("heartbeat", {"lease": grant["lease"]})
        assert beat == {"status": "ok", "valid": True}
        stale = coordinator.handle_request("heartbeat", {"lease": "lease-404"})
        assert stale == {"status": "ok", "valid": False}

    def test_unknown_action_raises_fabric_error(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        with pytest.raises(FabricError, match="unknown fabric action"):
            coordinator.handle_request("shutdown", {})

    def test_status_snapshot_shape(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        status = coordinator.handle_request("status", {})
        assert status["total"] == len(_CELLS)
        assert status["done"] is False
        assert status["counts"]["leased"] == 1
        [lease] = status["active_leases"]
        assert lease["lease"] == grant["lease"]
        assert lease["worker"] == "w1"
        assert status["workers"]["w1"]["claims"] == 1

    def test_store_is_a_required_argument(self):
        with pytest.raises(TypeError, match="store"):
            FabricCoordinator(_CELLS)

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"index": len(_CELLS)}, "out of range"),
            ({"index": None}, "int"),
            ({"records": [{"bogus": 1}]}, "bogus"),
        ],
        ids=["index-out-of-range", "index-not-an-int", "undecodable-records"],
    )
    def test_malformed_result_is_rejected_and_charged(
        self, store, cell_records, overrides, reason
    ):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=3)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        payload = {
            "worker": "w1",
            "lease": grant["lease"],
            "index": grant["index"],
            "digest": grant["digest"],
            "records": records_to_payload(cell_records[grant["index"]]),
            **overrides,
        }
        response = coordinator.handle_request("result", payload)
        assert response["status"] == "rejected"
        assert reason in response["reason"]
        assert coordinator.status()["attempts"] == {str(grant["index"]): 1}
        assert stored_records(store, _CELLS) == [None] * len(_CELLS)

    def test_policy_line_up_mismatch_is_rejected(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        records = cell_records[grant["index"]]
        response = _post_result(coordinator, grant, records + records[:1])
        assert response["status"] == "rejected"
        assert "policy line-up mismatch" in response["reason"]
        assert stored_records(store, _CELLS)[grant["index"]] is None

    def test_quarantined_cell_is_reported_and_counted_as_terminal(
        self, store, cell_records
    ):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=1)
        bad = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, bad, cell_records[bad["index"]], digest="0" * 64)
        good = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, good, cell_records[good["index"]])
        [entry] = coordinator.status()["quarantined_cells"]
        assert entry["index"] == bad["index"]
        assert entry["digest"] == bad["digest"]
        assert "digest mismatch" in entry["reason"]
        done = coordinator.handle_request("claim", {"worker": "w2"})
        assert done == {"status": "done", "completed": 1, "quarantined": 1}

    def test_late_valid_result_rescues_a_quarantined_cell(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=1)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        records = cell_records[grant["index"]]
        _post_result(coordinator, grant, records, digest="0" * 64)
        assert grant["index"] in coordinator.quarantined
        assert _post_result(coordinator, grant, records) == {"status": "committed"}
        assert grant["index"] not in coordinator.quarantined
        assert stored_records(store, _CELLS)[grant["index"]] == records

    def test_expired_lease_is_regranted_and_the_late_post_commits_once(
        self, store, cell_records
    ):
        clock = _Clock()
        coordinator = FabricCoordinator(
            _CELLS[:1], store=store, lease_ttl=5.0, backoff_s=1.0, clock=clock
        )
        first = coordinator.handle_request("claim", {"worker": "w1"})
        clock.advance(6.0)
        # The expiry charged the cell and backs it off for one second.
        assert coordinator.handle_request("claim", {"worker": "w2"})["status"] == "wait"
        clock.advance(1.0)
        second = coordinator.handle_request("claim", {"worker": "w2"})
        assert second["status"] == "lease" and second["index"] == first["index"]
        assert second["lease"] != first["lease"]
        records = cell_records[first["index"]]
        assert _post_result(coordinator, first, records) == {"status": "committed"}
        assert _post_result(coordinator, second, records) == {"status": "duplicate"}
        assert stored_records(store, _CELLS[:1]) == [records]

    def test_tick_expires_a_lease_and_journals_the_charge(self, store):
        clock = _Clock()
        coordinator = FabricCoordinator(_CELLS, store=store, lease_ttl=5.0, clock=clock)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        coordinator.tick()
        journal = store.root / STATE_FILE_NAME
        assert not journal.exists()  # nothing changed, nothing written
        clock.advance(6.0)
        coordinator.tick()
        state = json.loads(journal.read_text(encoding="utf-8"))
        assert state["attempts"] == {grant["digest"]: 1}
        assert coordinator.status()["active_leases"] == []


class _Clock:
    """A manual clock for the coordinator's lease deadlines."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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
            assert stored_records(store, _CELLS)[grant["index"]] == cell_records[grant["index"]]
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

    def test_torn_journal_only_loses_failure_history(self, store):
        (store.root / STATE_FILE_NAME).write_text("{not json", encoding="utf-8")
        coordinator = FabricCoordinator(_CELLS, store=store)
        status = coordinator.status()
        assert status["attempts"] == {}
        assert status["counts"]["pending"] == len(_CELLS)

    def test_journal_entries_of_another_grid_are_ignored(self, store):
        foreign = "a" * 64
        state = {"version": 1, "attempts": {foreign: 3}, "quarantined": {foreign: "x"}}
        (store.root / STATE_FILE_NAME).write_text(json.dumps(state), encoding="utf-8")
        coordinator = FabricCoordinator(_CELLS, store=store)
        assert coordinator.status()["attempts"] == {}
        assert coordinator.quarantined == {}

    def test_stored_cell_overrides_a_journaled_quarantine(self, store, cell_records):
        first = FabricCoordinator(_CELLS, store=store, max_attempts=1)
        grant = first.handle_request("claim", {"worker": "w1"})
        _post_result(first, grant, cell_records[grant["index"]], digest="0" * 64)
        assert grant["index"] in first.quarantined
        # The cell's records reach the store another way (a local sweep).
        run_sweep(_CONFIG, system="sync", store=store)
        second = FabricCoordinator(_CELLS, store=store, max_attempts=1)
        assert second.quarantined == {}
        assert second.status()["counts"]["completed"] == len(_CELLS)


class TestHTTPServer:
    def test_full_protocol_over_loopback(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
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

    def test_unknown_action_is_a_404(self, store):
        from repro.fabric import TransportError

        coordinator = FabricCoordinator(_CELLS, store=store)
        with FabricHTTPServer(coordinator) as server:
            transport = HttpTransport(server.url)
            with pytest.raises(TransportError, match="404"):
                transport.request("frobnicate", {})
            transport.close()

    def test_local_transport_matches_direct_calls(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        transport = LocalTransport(coordinator)
        assert transport.request("status", {}) == coordinator.status()

    @pytest.mark.parametrize(
        "method, body, error",
        [
            ("POST", b"{not json", "bad JSON body"),
            ("POST", b"[1, 2]", "must be a JSON object"),
            ("PUT", b"{}", "unsupported method"),
        ],
        ids=["bad-json", "not-an-object", "unsupported-method"],
    )
    def test_malformed_request_is_a_400(self, store, method, body, error):
        coordinator = FabricCoordinator(_CELLS, store=store)
        with FabricHTTPServer(coordinator) as server:
            status, response = _raw_request(server.url, method, "/status", body)
        assert status == 400
        assert error in response["error"]

    def test_get_status_is_served(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        with FabricHTTPServer(coordinator) as server:
            status, response = _raw_request(server.url, "GET", "/status", b"")
        assert status == 200
        assert response["total"] == len(_CELLS)

    @pytest.mark.parametrize("url", ["https://127.0.0.1:8123", "http://:8123"])
    def test_http_transport_refuses_a_url_it_cannot_reach(self, url):
        with pytest.raises(ValueError):
            HttpTransport(url)


def _raw_request(url, method, path, body):
    """One hand-built request to a fabric server: (HTTP status, JSON body)."""
    target = HttpTransport(url)
    connection = http.client.HTTPConnection(target.host, target.port, timeout=10)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


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
    def test_lease_grants_carry_the_protocol_version(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        assert grant["protocol_version"] == PROTOCOL_VERSION

    def test_worker_refuses_a_grant_of_another_version(self, store):
        assert PROTOCOL_VERSION != 2
        coordinator = FabricCoordinator(_CELLS, store=store)
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

    def test_status_reports_queue_depth_and_attempts(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=3)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        # One rejected result charges the cell's budget and requeues it.
        _post_result(coordinator, grant, cell_records[grant["index"]], digest="0" * 64)
        status = coordinator.status()
        assert status["queue_depth"] == status["counts"]["pending"]
        assert status["attempts"] == {str(grant["index"]): 1}
        assert status["oldest_lease_age_s"] is None  # nothing leased right now

    def test_status_reports_oldest_lease_age(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        coordinator.handle_request("claim", {"worker": "w1"})
        status = coordinator.status()
        assert status["oldest_lease_age_s"] is not None
        assert status["oldest_lease_age_s"] >= 0.0
        for stats in status["workers"].values():
            assert stats["last_seen_age_s"] >= 0.0

    def test_status_workers_carry_ages_not_monotonic_stamps(self, store, cell_records):
        now = [1000.0]
        coordinator = FabricCoordinator(_CELLS, store=store, clock=lambda: now[0])
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, grant, cell_records[grant["index"]])
        now[0] += 2.5
        status = json.loads(json.dumps(coordinator.handle_request("status", {})))
        assert status["workers"] == {
            "w1": {"claims": 1, "completed": 1, "failures": 0, "last_seen_age_s": 2.5}
        }

    def test_metrics_action_serves_the_registry(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, grant, cell_records[grant["index"]])
        snapshot = coordinator.handle_request("metrics", {})
        assert snapshot["counters"]["fabric.claim_requests"] == 1
        assert snapshot["counters"]["fabric.lease_claims"] == 1
        assert snapshot["counters"]["fabric.results_committed"] == 1
        assert snapshot["gauges"]["fabric.completed_cells"] == 1
        assert snapshot["gauges"]["fabric.queue_depth"] == len(_CELLS) - 1
        assert "worker.w1.last_seen_age_s" in snapshot["gauges"]

    def test_duplicate_and_rejected_results_are_counted(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=5)
        grant = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, grant, cell_records[grant["index"]])
        _post_result(coordinator, grant, cell_records[grant["index"]])
        bad = coordinator.handle_request("claim", {"worker": "w1"})
        _post_result(coordinator, bad, cell_records[bad["index"]], digest="0" * 64)
        counters = coordinator.handle_request("metrics", {})["counters"]
        assert counters["fabric.results_committed"] == 1
        assert counters["fabric.results_duplicate"] == 1
        assert counters["fabric.results_rejected"] == 1

    def test_metrics_endpoint_is_gated_behind_telemetry_flag(self, store):
        from repro.fabric import TransportError

        coordinator = FabricCoordinator(_CELLS, store=store)
        with FabricHTTPServer(coordinator) as server:
            transport = HttpTransport(server.url)
            with pytest.raises(TransportError, match="fabric serve --telemetry"):
                transport.request("metrics", {})
            transport.close()

    def test_metrics_endpoint_served_when_exposed(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        with FabricHTTPServer(coordinator, expose_metrics=True) as server:
            transport = HttpTransport(server.url)
            transport.request("claim", {"worker": "w1"})
            snapshot = transport.request("metrics", {})
            transport.close()
        assert snapshot["counters"]["fabric.lease_claims"] == 1
        assert snapshot["gauges"]["fabric.leased_cells"] == 1


class _ScriptedTransport(LocalTransport):
    """A local transport that fails or garbles the first replies to an action."""

    def __init__(self, coordinator, action, replies) -> None:
        super().__init__(coordinator)
        self.action = action
        self.replies = list(replies)

    def request(self, action, payload):
        if action == self.action and self.replies:
            reply = self.replies.pop(0)
            if reply is None:
                raise TransportError(f"{action}: dropped")
            return reply
        return super().request(action, payload)


class _DeadTransport(Transport):
    def request(self, action, payload):
        raise TransportError(f"{action}: connection refused")


class TestWorker:
    def test_worker_gives_up_after_its_claim_patience(self):
        worker = FabricWorker(
            _DeadTransport(), heartbeats=False, claim_patience=3, sleep=lambda s: None
        )
        with pytest.raises(TransportError, match="connection refused"):
            worker.run()
        assert worker.stats.transport_errors == 3
        assert worker.stats.claims == 0

    def test_abandoned_post_is_recovered_by_lease_expiry(self, store, cell_records):
        clock = _Clock()
        coordinator = FabricCoordinator(
            _CELLS[:1], store=store, lease_ttl=1.0, backoff_s=0.5, clock=clock
        )
        transport = _ScriptedTransport(coordinator, "result", [None, None])
        worker = FabricWorker(
            transport, heartbeats=False, post_retries=2, sleep=clock.advance
        )
        stats = worker.run()
        assert stats.abandoned == 1
        assert stats.transport_errors == 2
        assert stats.claims == 2 and stats.completed == 1
        assert stored_records(store, _CELLS[:1]) == [cell_records[0]]

    def test_unexpected_claim_reply_is_counted_and_retried(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS[:1], store=store)
        transport = _ScriptedTransport(coordinator, "claim", [{"status": "bogus"}])
        worker = FabricWorker(transport, heartbeats=False, sleep=lambda s: None)
        stats = worker.run()
        assert stats.transport_errors == 1
        assert stats.completed == 1
        assert stored_records(store, _CELLS[:1]) == [cell_records[0]]

    def test_stats_tally_every_policy_of_every_cell(self, store):
        coordinator = FabricCoordinator(_CELLS, store=store)
        worker = FabricWorker(LocalTransport(coordinator), heartbeats=False)
        stats = worker.run()
        names = default_policies(_CONFIG, "sync")
        assert stats.policies_run == {name: len(_CELLS) for name in names}
        assert stats.completed == stats.claims == len(_CELLS)

    def test_post_counts_each_outcome(self, store, cell_records):
        coordinator = FabricCoordinator(_CELLS, store=store, max_attempts=5)
        worker = FabricWorker(LocalTransport(coordinator), heartbeats=False)
        grant = coordinator.handle_request("claim", {"worker": worker.name})
        payload = {
            "worker": worker.name,
            "lease": grant["lease"],
            "index": grant["index"],
            "digest": grant["digest"],
            "records": records_to_payload(cell_records[grant["index"]]),
        }
        worker.post(payload)
        worker.post(payload)
        worker.post({**payload, "index": len(_CELLS)})
        assert (worker.stats.completed, worker.stats.duplicates) == (1, 1)
        assert worker.stats.rejected == 1
