"""The approximation-ratio study: figure_ratio, ratio_claims, CLI, store.

The acceptance criteria of the solver tier live here: every observed
ratio sits at or above 1 and at or below its proved bound, the exact
tier's own ratio is identically 1, the solver axis is enforced at
configuration time, and ratio cells cache-hit across engines and worker
counts (the solver is workload configuration, not execution mode).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dutycycle.cwt import max_cwt
from repro.experiments.cli import main as cli_main
from repro.experiments.config import RATIO_SWEEP, SweepConfig
from repro.experiments.figures import BOUND_SUFFIX, figure_ratio
from repro.experiments.report import ratio_claims
from repro.experiments.runner import run_sweep
from repro.store import ExperimentStore

#: One small, fast grid cell: 6-node instances, two repetitions.
TINY = dataclasses.replace(RATIO_SWEEP, node_counts=(6,), repetitions=2)


@pytest.fixture(scope="module")
def duty_figure():
    return figure_ratio(
        TINY, scenarios=("uniform",), duty_models=("uniform",), system="duty"
    )


@pytest.fixture(scope="module")
def sync_figure():
    return figure_ratio(TINY, scenarios=("uniform", "ring"), system="sync")


class TestFigureRatio:
    def test_exact_series_is_identically_one(self, duty_figure, sync_figure):
        for figure in (duty_figure, sync_figure):
            assert all(value == 1.0 for value in figure.series_for("exact"))

    def test_no_ratio_below_one(self, duty_figure, sync_figure):
        for figure in (duty_figure, sync_figure):
            for name, values in figure.series.items():
                if name.endswith(BOUND_SUFFIX):
                    continue
                assert min(values) >= 1.0 - 1e-9, name

    def test_duty_bound_series_is_seventeen_k(self, duty_figure):
        bound = duty_figure.series_for(f"17-approx{BOUND_SUFFIX}")
        assert bound == [17.0 * max_cwt(10)] * len(duty_figure.x_values)

    def test_sync_bound_series_is_twenty_six(self, sync_figure):
        bound = sync_figure.series_for(f"26-approx{BOUND_SUFFIX}")
        assert bound == [26.0] * len(sync_figure.x_values)

    def test_sync_collapses_the_duty_model_axis(self, sync_figure):
        assert sync_figure.x_label == "scenario"
        assert sync_figure.x_values == ("uniform", "ring")

    def test_duty_labels_span_the_grid(self, duty_figure):
        assert duty_figure.x_label == "scenario/duty model"
        assert duty_figure.x_values == ("uniform/uniform",)

    def test_needs_an_exact_tier_to_anchor_the_ratios(self):
        config = dataclasses.replace(TINY, solver="heuristic")
        with pytest.raises(ValueError, match="exact solver tier"):
            figure_ratio(config, scenarios=("uniform",), duty_models=("uniform",))


class TestRatioClaims:
    def test_all_claims_hold_on_both_systems(self, duty_figure, sync_figure):
        for figure in (duty_figure, sync_figure):
            checks = ratio_claims(figure)
            assert checks  # at least floor + exactness + one bound
            failed = [check.claim for check in checks if not check.holds]
            assert not failed

    def test_bound_series_get_a_dedicated_check(self, duty_figure):
        checks = ratio_claims(duty_figure)
        assert any("proved bound" in check.claim for check in checks)

    def test_exactness_check_fails_on_a_doctored_figure(self, duty_figure):
        doctored = dataclasses.replace(
            duty_figure,
            series={**duty_figure.series, "exact": [1.5]},
        )
        checks = ratio_claims(doctored)
        exactness = [c for c in checks if "ratio 1" in c.claim and "exact" in c.claim]
        assert exactness and not exactness[0].holds


class TestSolverAxisConfig:
    @pytest.mark.parametrize("solver", ["simplex", "branch-and-bound"])
    def test_unknown_tier_is_rejected(self, solver):
        with pytest.raises(ValueError, match="unknown solver tier"):
            dataclasses.replace(TINY, solver=solver)

    def test_instance_limit_is_enforced_at_config_time(self):
        with pytest.raises(ValueError, match="at most 16 nodes"):
            dataclasses.replace(TINY, node_counts=(50,))

    def test_exact_tier_rejects_lossy_links(self):
        with pytest.raises(ValueError, match="loss-tolerant tier"):
            dataclasses.replace(
                TINY, link_model="independent-loss", loss_probability=0.2
            )

    def test_exact_tier_rejects_multi_source(self):
        with pytest.raises(ValueError, match="single source"):
            dataclasses.replace(TINY, n_sources=2)

    def test_default_tier_is_the_heuristic(self):
        assert SweepConfig().solver == "heuristic"
        assert RATIO_SWEEP.solver == "exact"

    def test_system_mismatch_is_rejected_loudly(self):
        config = dataclasses.replace(TINY, solver="26-approx", repetitions=1)
        with pytest.raises(ValueError, match="only schedules"):
            run_sweep(config, system="duty", rate=10)

    def test_selected_tier_leads_the_line_up(self):
        config = dataclasses.replace(TINY, solver="exact", repetitions=1)
        sweep = run_sweep(config, system="duty", rate=10)
        assert sweep.policies[0] == "exact"
        assert sweep.records_for("exact")

    def test_heuristic_tier_leaves_the_line_up_unchanged(self):
        config = dataclasses.replace(TINY, solver="heuristic", repetitions=1)
        sweep = run_sweep(config, system="duty", rate=10)
        assert "heuristic" not in sweep.policies
        assert "E-model" in sweep.policies


class TestRatioStoreIntegration:
    def test_cells_cache_hit_across_engines_and_workers(self, tmp_path):
        kwargs = dict(scenarios=("uniform",), duty_models=("uniform",))
        with ExperimentStore(tmp_path / "store") as store:
            cold = figure_ratio(TINY, system="duty", store=store, **kwargs)
            assert cold.sweep.cache_misses > 0
            assert cold.sweep.cache_hits == 0

            warm = figure_ratio(TINY, system="duty", store=store, **kwargs)
            assert warm.sweep.cache_hits == cold.sweep.cache_misses
            assert warm.sweep.cache_misses == 0
            assert warm.series == cold.series

            # The solver is workload configuration; engine and workers are
            # execution modes and must serve the same cached cells.
            other_mode = dataclasses.replace(TINY, engine="vectorized", workers=2)
            across = figure_ratio(other_mode, system="duty", store=store, **kwargs)
            assert across.sweep.cache_hits == cold.sweep.cache_misses
            assert across.sweep.cache_misses == 0
            assert across.series == cold.series

    def test_changing_the_tier_re_simulates(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            exact = run_sweep(TINY, system="duty", rate=10, store=store)
            assert exact.cache_misses > 0
            retier = dataclasses.replace(TINY, solver="heuristic")
            refreshed = run_sweep(retier, system="duty", rate=10, store=store)
            assert refreshed.cache_misses == exact.cache_misses
            assert refreshed.cache_hits == 0


class TestRatioCli:
    def test_list_solvers_prints_the_registry(self, capsys):
        from repro.solvers import solver_names

        assert cli_main(["--list-solvers"]) == 0
        out = capsys.readouterr().out
        assert "Registered solver tiers (--solver):" in out
        for name in solver_names():
            assert name in out

    def test_ratio_target_reports_claims_and_exits_zero(self, capsys):
        code = cli_main(["ratio", "--nodes", "6", "--repetitions", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Approximation ratio" in out
        assert "claims hold (solver=exact system=duty)" in out
        assert f"17-approx{BOUND_SUFFIX}" in out

    def test_solver_flag_is_workload_only(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["figure3", "--solver", "exact"])
        assert "'ratio'" in capsys.readouterr().err

    def test_ratio_rejects_oversized_grids(self):
        with pytest.raises(ValueError, match="at most 16 nodes"):
            cli_main(["ratio", "--nodes", "100"])
