"""Unit tests for the persistent experiment store (repro.store)."""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import RunRecord
from repro.store import (
    STORE_BACKENDS,
    STORE_SCHEMA_VERSION,
    CellKey,
    ExperimentStore,
    cell_key_for,
    get_store_backend,
    open_store,
    store_backend_names,
)
from repro.utils.serialization import canonical_json


@pytest.fixture(scope="module")
def config() -> SweepConfig:
    return SweepConfig(
        node_counts=(16, 24),
        area_side=10.0,
        radius=4.0,
        repetitions=2,
        source_min_ecc=1,
        source_max_ecc=None,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
    )


def _record(**overrides) -> RunRecord:
    values = dict(
        policy="E-model",
        system="duty",
        rate=10,
        scenario="uniform",
        duty_model="uniform",
        link_model="reliable",
        loss_probability=0.0,
        num_nodes=16,
        density=0.16,
        repetition=0,
        seed=12345,
        source=3,
        eccentricity=4,
        latency=40,
        end_time=41,
        num_advances=9,
        total_transmissions=11,
        retransmissions=0,
        mean_message_latency=40.0,
        max_message_latency=40,
        tx_energy=220.0,
        rx_energy=1 / 3,  # exercise a float that needs exact round-tripping
        idle_energy=17.5,
        total_energy=220.0 + 1 / 3 + 17.5,
    )
    values.update(overrides)
    return RunRecord(**values)


def _key(config: SweepConfig, **overrides) -> CellKey:
    values = dict(
        system="duty",
        rate=10,
        num_nodes=16,
        repetition=0,
        policies=("17-approx", "E-model"),
    )
    values.update(overrides)
    return cell_key_for(config, **values)


class TestCellKey:
    def test_digest_is_hex_and_deterministic(self, config):
        key = _key(config)
        assert len(key.digest) == 64
        assert int(key.digest, 16) >= 0
        assert key.digest == _key(config).digest

    def test_key_embeds_schema_version(self, config):
        assert _key(config).schema_version == STORE_SCHEMA_VERSION

    def test_coordinates_change_the_digest(self, config):
        base = _key(config).digest
        assert _key(config, num_nodes=24).digest != base
        assert _key(config, repetition=1).digest != base
        assert _key(config, system="sync", rate=1).digest != base
        assert _key(config, rate=50).digest != base
        assert _key(config, policies=("E-model",)).digest != base

    def test_params_are_canonical_json_of_cell_fields(self, config):
        key = _key(config)
        assert json.loads(key.params) == json.loads(
            json.dumps(config.cell_key_fields())
        )


class TestBackends:
    def test_registry_names(self):
        assert store_backend_names() == ["csv", "jsonl"]
        assert set(STORE_BACKENDS) == {"jsonl", "csv"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            get_store_backend("parquet")

    @pytest.mark.parametrize("name", ["jsonl", "csv"])
    def test_round_trip_is_bit_identical(self, name):
        backend = STORE_BACKENDS[name]
        records = [
            _record(),
            _record(policy="17-approx", latency=77, rx_energy=0.1 + 0.2),
        ]
        assert backend.loads(backend.dumps(records)) == records

    @pytest.mark.parametrize("name", ["jsonl", "csv"])
    def test_empty_batch_round_trips(self, name):
        backend = STORE_BACKENDS[name]
        assert backend.loads(backend.dumps([])) == []


class TestExperimentStore:
    def test_miss_then_hit(self, tmp_path, config):
        key = _key(config)
        records = [_record(), _record(policy="17-approx")]
        with ExperimentStore(tmp_path / "store") as store:
            assert store.get(key) is None
            assert not store.contains(key)
            digest = store.put(key, records)
            assert digest == key.digest
            assert store.contains(key)
            assert store.get(key) == records

    def test_reopen_persists(self, tmp_path, config):
        key = _key(config)
        with ExperimentStore(tmp_path / "store") as store:
            store.put(key, [_record()])
        with ExperimentStore(tmp_path / "store") as store:
            assert store.get(key) == [_record()]

    def test_shard_is_content_addressed(self, tmp_path, config):
        key = _key(config)
        with ExperimentStore(tmp_path / "store") as store:
            store.put(key, [_record()])
            shards = list((tmp_path / "store" / "shards").glob("*/*"))
            assert [path.name for path in shards] == [f"{key.digest}.jsonl"]
            # No temp files survive the atomic write.
            assert not [p for p in shards if p.name.startswith(".")]

    def test_missing_shard_degrades_to_miss(self, tmp_path, config):
        key = _key(config)
        with ExperimentStore(tmp_path / "store") as store:
            store.put(key, [_record()])
            for shard in (tmp_path / "store" / "shards").glob("*/*"):
                shard.unlink()
            assert store.get(key) is None
            # The dangling row was reaped along the way.
            assert store.stats().cells == 0

    def test_mixed_backends_stay_readable(self, tmp_path, config):
        jsonl_key = _key(config)
        csv_key = _key(config, repetition=1)
        root = tmp_path / "store"
        with ExperimentStore(root, backend="jsonl") as store:
            store.put(jsonl_key, [_record()])
        with ExperimentStore(root, backend="csv") as store:
            store.put(csv_key, [_record(repetition=1)])
            assert store.get(jsonl_key) == [_record()]
            assert store.get(csv_key) == [_record(repetition=1)]

    def test_stats_counts_cells_and_records(self, tmp_path, config):
        with ExperimentStore(tmp_path / "store") as store:
            store.put(_key(config), [_record(), _record(policy="17-approx")])
            store.put(_key(config, repetition=1), [_record(repetition=1)])
            stats = store.stats()
        assert stats.cells == 2
        assert stats.records == 3
        assert stats.shard_bytes > 0
        assert stats.systems == {"duty": 2}
        assert stats.scenarios == {"uniform": 2}
        assert stats.schema_versions == {STORE_SCHEMA_VERSION: 2}

    def test_gc_reaps_orphans_dangling_and_stale_schema(self, tmp_path, config):
        root = tmp_path / "store"
        with ExperimentStore(root) as store:
            kept = _key(config)
            store.put(kept, [_record()])
            # Dangling row: shard removed behind the store's back.
            dangling = _key(config, repetition=1)
            store.put(dangling, [_record(repetition=1)])
            (root / "shards" / dangling.digest[:2] / f"{dangling.digest}.jsonl").unlink()
            # Stale schema version: digest can never be requested again.
            stale = _key(config, num_nodes=24)
            stale = dataclasses.replace(stale, schema_version=STORE_SCHEMA_VERSION + 1)
            store.put(stale, [_record(num_nodes=24)])
            # Orphan shard + stale temp file (a *fresh* one may be a live
            # write and must survive gc; backdate these two).
            orphan_dir = root / "shards" / "ff"
            orphan_dir.mkdir(parents=True)
            orphan = orphan_dir / ("f" * 64 + ".jsonl")
            orphan.write_text("")
            stale_temp = orphan_dir / ".leftover.jsonl.tmp-1"
            stale_temp.write_text("")
            two_hours_ago = time.time() - 7200
            for leftover in (orphan, stale_temp):
                os.utime(leftover, (two_hours_ago, two_hours_ago))
            fresh_temp = orphan_dir / ".inflight.jsonl.tmp-2"
            fresh_temp.write_text("")

            removed = store.gc()
            assert removed.dangling_rows == 1
            assert removed.orphan_shards == 1
            assert removed.stale_schema_cells == 1
            assert removed.temp_files == 1
            assert removed.total == 4
            # The reachable cell survived untouched, and so did the
            # in-flight temp file of a (hypothetical) concurrent writer.
            assert store.get(kept) == [_record()]
            assert fresh_temp.exists()
            assert store.gc().total == 0

    def test_export_round_trip(self, tmp_path, config):
        records_a = [_record(), _record(policy="17-approx")]
        records_b = [_record(repetition=1)]
        with ExperimentStore(tmp_path / "store") as store:
            store.put(_key(config, repetition=1), records_b)
            store.put(_key(config), records_a)
            for fmt in store_backend_names():
                exported = store.export(fmt)
                reloaded = STORE_BACKENDS[fmt].loads(exported)
                # Canonical order: repetition 0's cell before repetition 1's.
                assert reloaded == records_a + records_b

    def test_open_store_passthrough(self, tmp_path):
        assert open_store(None) is None
        store = open_store(tmp_path / "store")
        assert isinstance(store, ExperimentStore)
        store.close()


class TestSchemaTwoCells:
    """Cells cached under schema 2 still carry the retired ``duty_rates``."""

    @staticmethod
    def _schema_two_key(config: SweepConfig) -> CellKey:
        params = {**config.cell_key_fields(), "duty_rates": [10, 50]}
        return dataclasses.replace(
            _key(config), params=canonical_json(params), schema_version=2
        )

    def test_export_and_gc(self, tmp_path, config):
        records = [_record(policy="17-approx"), _record()]
        with ExperimentStore(tmp_path / "store") as store:
            store.put(self._schema_two_key(config), records)
            assert STORE_BACKENDS["jsonl"].loads(store.export("jsonl")) == records
            assert store.gc().stale_schema_cells == 1
            assert store.stats().cells == 0

    def test_schema_two_cell_misses_the_current_key(self, tmp_path, config):
        old = self._schema_two_key(config)
        current = _key(config)
        assert current.schema_version == STORE_SCHEMA_VERSION == 3
        assert "duty_rates" not in json.loads(current.params)
        assert old.digest != current.digest
        with ExperimentStore(tmp_path / "store") as store:
            store.put(old, [_record()])
            assert store.get(current) is None
