"""CLI surface of the sweep fabric: the ``fabric serve|work|status`` target."""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import _run_cell, run_sweep, sweep_cells
from repro.fabric import FabricCoordinator, FabricHTTPServer, FabricWorker, HttpTransport
from repro.store import ExperimentStore
from tests.fabric_fleet import stored_records

_TINY = ["--nodes", "50", "--repetitions", "1"]
_TINY_CONFIG = replace(QUICK_SWEEP, node_counts=(50,), repetitions=1)
#: The exact grid a ``fabric serve`` of ``_TINY`` builds (duty/rate 10 are
#: the CLI's --system/--rate defaults).
_TINY_CELLS = sweep_cells(_TINY_CONFIG, system="duty", rate=10)


class TestParser:
    def test_fabric_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "fabric", "serve", "--store", str(tmp_path),
                "--port", "8123", "--lease-ttl", "2.5", "--max-attempts", "7",
                "--linger", "0", "--status-file", str(tmp_path / "s.json"),
            ]
        )
        assert (args.target, args.action) == ("fabric", "serve")
        assert args.port == 8123
        assert args.lease_ttl == 2.5
        assert args.max_attempts == 7
        assert args.linger == 0.0

    def test_fabric_requires_an_action(self, capsys):
        with pytest.raises(SystemExit):
            main(["fabric"])
        assert "serve, work or status" in capsys.readouterr().err

    def test_serve_requires_a_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["fabric", "serve"])
        assert "--store" in capsys.readouterr().err

    def test_work_and_status_require_a_url(self, capsys):
        for action in ("work", "status"):
            with pytest.raises(SystemExit):
                main(["fabric", action])
            assert "--url" in capsys.readouterr().err


class TestWorkAndStatus:
    @pytest.fixture()
    def coordinator(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            yield FabricCoordinator(_TINY_CELLS, store=store)

    def test_work_drains_a_coordinator(self, coordinator, capsys):
        with FabricHTTPServer(coordinator) as server:
            assert main(["fabric", "work", "--url", server.url,
                         "--worker-name", "cli-w1"]) == 0
        out = capsys.readouterr().out
        assert "cli-w1 completed 1 cell(s)" in out
        assert coordinator.status()["done"] is True

    def test_status_prints_and_writes_json(self, coordinator, tmp_path, capsys):
        status_file = tmp_path / "status.json"
        with FabricHTTPServer(coordinator) as server:
            assert main(["fabric", "status", "--url", server.url,
                         "--status-file", str(status_file)]) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(status_file.read_text())
        for status in (printed, on_disk):
            assert status["total"] == len(_TINY_CELLS)
            assert status["counts"]["pending"] == len(_TINY_CELLS)

    def test_work_against_a_dead_coordinator_fails_cleanly(self, capsys):
        assert main(["fabric", "status", "--url", "http://127.0.0.1:9"]) == 1
        assert "fabric status:" in capsys.readouterr().err


class TestServe:
    def test_serve_runs_a_grid_to_completion(self, tmp_path, capsys):
        """serve + one in-thread CLI worker: records land in the store."""
        store_dir = tmp_path / "store"
        status_file = tmp_path / "status.json"
        exit_codes: dict[str, int] = {}

        def serve():
            exit_codes["serve"] = main(
                [
                    "fabric", "serve", *_TINY, "--store", str(store_dir),
                    "--port", "18472", "--linger", "0.5",
                    "--status-file", str(status_file),
                ]
            )

        thread = threading.Thread(target=serve, name="serve-cli")
        thread.start()
        try:
            assert main(
                ["fabric", "work", "--url", "http://127.0.0.1:18472"]
            ) == 0
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert exit_codes["serve"] == 0
        status = json.loads(status_file.read_text())
        assert status["done"] is True
        assert status["counts"]["completed"] == status["total"] == 1
        # The grid landed in the store: a plain CLI sweep is fully cached.
        capsys.readouterr()
        assert main(["sweep", *_TINY, "--store", str(store_dir)]) == 0
        assert "1 hits / 0 misses (100% cached)" in capsys.readouterr().out

    def test_fully_cached_grid_serves_without_workers(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            run_sweep(_TINY_CONFIG, system="duty", rate=10, store=store)
        assert main(
            ["fabric", "serve", *_TINY, "--store", str(store_dir), "--linger", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "1/1 cells done" in out

    def test_serve_exits_one_naming_a_quarantined_cell(self, tmp_path, capsys):
        """One attempt allowed and a worker that posts a wrong digest for
        cell 1: serve quarantines it, names it on stderr and exits 1, while
        the healthy cell is committed to the store."""
        poisoned = 1
        cells = sweep_cells(
            replace(_TINY_CONFIG, repetitions=2), system="duty", rate=10
        )
        store_dir = tmp_path / "store"
        with socket.socket() as probe:  # a free loopback port for serve
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_codes: dict[str, int] = {}

        def serve():
            exit_codes["serve"] = main(
                [
                    "fabric", "serve", "--nodes", "50", "--repetitions", "2",
                    "--store", str(store_dir), "--port", str(port),
                    "--max-attempts", "1", "--linger", "0.5",
                ]
            )

        class _PoisonWorker(FabricWorker):
            def post(self, payload):
                if payload["index"] == poisoned:
                    payload = {**payload, "digest": "0" * 64}
                super().post(payload)

        thread = threading.Thread(target=serve, name="serve-cli")
        thread.start()
        transport = HttpTransport(f"http://127.0.0.1:{port}")
        try:
            stats = _PoisonWorker(transport, poll_interval=0.05).run()
        finally:
            transport.close()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert exit_codes["serve"] == 1
        assert (stats.completed, stats.rejected) == (1, 1)
        err = capsys.readouterr().err
        assert f"fabric: cell {poisoned} quarantined: rejected result" in err
        assert "fabric: cell 0 quarantined" not in err
        with ExperimentStore(store_dir) as store:
            healthy, missing = stored_records(store, cells)
        assert healthy == _run_cell(cells[0])
        assert missing is None
