"""Unit tests for repro.experiments.runner."""

from __future__ import annotations

import pytest

from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy
from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies, run_sweep


@pytest.fixture(scope="module")
def tiny_config() -> SweepConfig:
    return SweepConfig(
        node_counts=(40, 60),
        repetitions=2,
        area_side=30.0,
        radius=9.0,
        source_min_ecc=3,
        source_max_ecc=None,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=8,
        seed=77,
    )


@pytest.fixture(scope="module")
def fast_policies():
    return {"E-model": EModelPolicy, "26-approx": Approx26Policy}


@pytest.fixture(scope="module")
def sync_sweep(tiny_config, fast_policies):
    return run_sweep(tiny_config, system="sync", policies=fast_policies)


class TestRunSweep:
    def test_record_count(self, sync_sweep, tiny_config):
        expected = len(tiny_config.node_counts) * tiny_config.repetitions * 2
        assert len(sync_sweep.records) == expected

    def test_paired_deployments_across_policies(self, sync_sweep):
        """Both policies see the same deployment (same seed, source, d)."""
        by_key = {}
        for record in sync_sweep.records:
            key = (record.num_nodes, record.repetition)
            by_key.setdefault(key, []).append(record)
        for records in by_key.values():
            assert len({r.seed for r in records}) == 1
            assert len({r.source for r in records}) == 1
            assert len({r.eccentricity for r in records}) == 1

    def test_density_computed_from_area(self, sync_sweep, tiny_config):
        for record in sync_sweep.records:
            expected = record.num_nodes / (tiny_config.area_side ** 2)
            assert record.density == pytest.approx(expected)

    def test_latency_series_shape(self, sync_sweep, tiny_config):
        series = sync_sweep.latency_series()
        assert set(series) == {"E-model", "26-approx"}
        for values in series.values():
            assert len(values) == len(tiny_config.node_counts)
            assert all(v > 0 for v in values)

    def test_mean_latency_consistent_with_records(self, sync_sweep, tiny_config):
        policy = "E-model"
        node_count = tiny_config.node_counts[0]
        values = [r.latency for r in sync_sweep.records_for(policy, node_count)]
        assert sync_sweep.mean_latency(policy, node_count) == pytest.approx(
            sum(values) / len(values)
        )

    def test_eccentricity_series_positive(self, sync_sweep, tiny_config):
        series = sync_sweep.eccentricity_series()
        assert len(series) == len(tiny_config.node_counts)
        assert all(value >= tiny_config.source_min_ecc for value in series)

    def test_to_rows_matches_headers(self, sync_sweep):
        rows = sync_sweep.to_rows()
        assert len(rows) == len(sync_sweep.records)
        assert all(len(row) == len(sync_sweep.ROW_HEADERS) for row in rows)

    def test_duty_sweep_runs(self, tiny_config, fast_policies):
        from repro.baselines.approx17 import Approx17Policy

        policies = {"E-model": EModelPolicy, "17-approx": Approx17Policy}
        sweep = run_sweep(tiny_config, system="duty", rate=5, policies=policies)
        assert sweep.rate == 5
        assert all(r.system == "duty" for r in sweep.records)
        # Duty-cycle latencies are at least the synchronous ones on average.
        assert min(r.latency for r in sweep.records) >= 1

    def test_unknown_system_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_sweep(tiny_config, system="half-duplex")

    @pytest.mark.parametrize("keyword", ["progress", "profile", "batch"])
    def test_retired_keywords_rejected(self, tiny_config, keyword):
        # Progress reporting goes through EVENT_BUS sinks and the stripe
        # executor's knobs are gone; a stale caller fails instead of
        # running with the argument silently ignored.
        with pytest.raises(TypeError, match=keyword):
            run_sweep(tiny_config, **{keyword: None})


class TestDefaultPolicies:
    def test_sync_lineup(self, tiny_config):
        lineup = default_policies(tiny_config, "sync")
        assert set(lineup) == {"26-approx", "OPT", "G-OPT", "E-model"}
        policy = lineup["OPT"]()
        assert policy.name == "OPT"

    def test_duty_lineup(self, tiny_config):
        lineup = default_policies(tiny_config, "duty")
        assert set(lineup) == {"17-approx", "OPT", "G-OPT", "E-model"}

    def test_unknown_system(self, tiny_config):
        with pytest.raises(ValueError):
            default_policies(tiny_config, "bogus")
