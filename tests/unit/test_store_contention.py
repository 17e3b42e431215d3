"""Concurrent-writer safety of the experiment store.

The fabric coordinator commits results from its HTTP server's executor
threads while status reads and the serve loop touch the same store, so the
store must tolerate concurrent ``put``/``get``/``stats`` on one shared
connection — and ``gc`` must *report*, not delete, another writer's
in-flight atomic-write temp files.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import _run_cell, default_policies, sweep_cells
from repro.store import ExperimentStore, cell_key_for
from repro.store.store import _SHARDS_DIR, _TEMP_FILE_MAX_AGE_S
from repro.utils.serialization import atomic_write_text

_CONFIG = replace(QUICK_SWEEP, node_counts=(50,), repetitions=4)


@pytest.fixture(scope="module")
def cells_with_records():
    cells = sweep_cells(_CONFIG, system="sync")
    return [(cell, _run_cell(cell)) for cell in cells]


def _key_for(cell):
    return cell_key_for(
        cell.config,
        system=cell.system,
        rate=cell.rate,
        num_nodes=cell.num_nodes,
        repetition=cell.repetition,
        policies=tuple(default_policies(cell.config, cell.system)),
    )


class TestConcurrentCommitters:
    def test_two_committers_interleave_without_corruption(
        self, tmp_path, cells_with_records
    ):
        """Two threads hammer put/get/contains on one store: every cell must
        end up complete and readable, with no torn shard or index row."""
        store = ExperimentStore(tmp_path / "store")
        keyed = [(_key_for(cell), records) for cell, records in cells_with_records]
        errors: list[BaseException] = []
        start = threading.Barrier(2)

        def committer(name: str) -> None:
            try:
                start.wait(timeout=10.0)
                for _ in range(25):
                    for key, records in keyed:
                        store.put(key, records)
                        assert store.contains(key)
                        assert store.get(key) == records
                        store.stats()
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=committer, args=(f"c{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert errors == []
        stats = store.stats()
        assert stats.cells == len(keyed)
        for key, records in keyed:
            assert store.get(key) == records
        # The interleaved re-puts of identical content left nothing to gc.
        removed = store.gc()
        assert removed.total == 0
        store.close()

    def test_same_digest_from_two_threads_is_idempotent(
        self, tmp_path, cells_with_records
    ):
        """The fabric's duplicate-commit case: both writers race the *same*
        cell; content addressing makes the second commit a no-op rewrite."""
        store = ExperimentStore(tmp_path / "store")
        cell, records = cells_with_records[0]
        key = _key_for(cell)
        start = threading.Barrier(2)

        def committer() -> None:
            start.wait(timeout=10.0)
            for _ in range(50):
                assert store.put(key, records) == key.digest

        threads = [threading.Thread(target=committer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert store.stats().cells == 1
        assert store.get(key) == records
        store.close()


class TestScansBesideAtomicWrites:
    def test_stats_and_gc_survive_temp_files_renamed_away(self, tmp_path):
        """A writer's ``.tmp-*`` file is renamed into place by ``os.replace``
        at any moment, also between a scan's listing and its ``stat``:
        ``stats`` and ``gc`` must treat the vanished entry as gone."""
        store = ExperimentStore(tmp_path / "store")
        target = store.root / _SHARDS_DIR / "ef" / "concurrent.jsonl"
        stop = threading.Event()
        writes = 0

        def writer() -> None:
            nonlocal writes
            while not stop.is_set():
                atomic_write_text(target, "x" * 64)
                writes += 1

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                store.stats()
                store.gc()
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(switch_interval)
            store.close()
        assert not thread.is_alive()
        assert writes > 0


    def test_gc_beside_live_puts_keeps_every_cell(self, tmp_path, cells_with_records):
        """``put`` writes a shard before it commits the index row; a gc pass
        in between sees an unreferenced shard and must leave it alone."""
        store = ExperimentStore(tmp_path / "store")
        records = cells_with_records[0][1]
        line_up = tuple(default_policies(_CONFIG, "sync"))
        keys = [
            cell_key_for(
                _CONFIG,
                system="sync",
                rate=1,
                num_nodes=50,
                repetition=repetition,
                policies=line_up,
            )
            for repetition in range(300)
        ]
        stop = threading.Event()

        def collector() -> None:
            while not stop.is_set():
                store.gc()

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=collector)
        thread.start()
        try:
            for key in keys:
                store.put(key, records)
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(switch_interval)
        lost = [key.repetition for key in keys if store.get(key) is None]
        store.close()
        assert not thread.is_alive()
        assert lost == []

class TestGcInFlightReporting:
    def test_gc_reports_but_keeps_young_temp_files(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        shard_dir = store.root / _SHARDS_DIR / "ab"
        shard_dir.mkdir(parents=True)
        fresh = shard_dir / ".inflight-commit.tmp"
        fresh.write_text("a concurrent writer's half-written shard")
        removed = store.gc()
        assert removed.in_flight_temp_files == 1
        assert removed.temp_files == 0
        assert removed.total == 0  # reported items are not removed items
        assert fresh.exists()
        store.close()

    def test_gc_still_reaps_crash_leftovers(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        shard_dir = store.root / _SHARDS_DIR / "cd"
        shard_dir.mkdir(parents=True)
        stale = shard_dir / ".crashed-commit.tmp"
        stale.write_text("orphaned by a dead process")
        old = time.time() - (_TEMP_FILE_MAX_AGE_S + 60.0)
        import os

        os.utime(stale, (old, old))
        removed = store.gc()
        assert removed.temp_files == 1
        assert removed.in_flight_temp_files == 0
        assert removed.total == 1
        assert not stale.exists()
        store.close()
