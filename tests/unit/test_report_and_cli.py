"""Unit tests for repro.experiments.report and repro.experiments.cli."""

from __future__ import annotations

import pytest

from repro.experiments import cli as cli_mod
from repro.experiments import figures as figures_mod
from repro.experiments.cli import build_parser, main
from repro.experiments.figures import FigureResult
from repro.experiments.report import ClaimCheck, claims_to_text, summary_claims


def _synthetic_fig3() -> FigureResult:
    return FigureResult(
        name="Figure 3",
        title="synthetic",
        x_label="density",
        x_values=(0.02, 0.04),
        series={
            "26-approx": [20.0, 24.0],
            "OPT": [6.0, 7.0],
            "G-OPT": [6.0, 8.0],
            "E-model": [7.0, 9.0],
            "OPT-analysis": [8.0, 9.0],
        },
    )


def _synthetic_duty(name: str) -> FigureResult:
    return FigureResult(
        name=name,
        title="synthetic",
        x_label="density",
        x_values=(0.02, 0.04),
        series={
            "17-approx": [100.0, 120.0],
            "OPT": [15.0, 18.0],
            "G-OPT": [15.0, 19.0],
            "E-model": [20.0, 25.0],
        },
    )


class TestSummaryClaims:
    def test_claims_computed_and_hold_on_synthetic_data(self):
        checks = summary_claims(_synthetic_fig3(), _synthetic_duty("Figure 4"), _synthetic_duty("Figure 6"))
        assert len(checks) == 5
        assert all(isinstance(c, ClaimCheck) for c in checks)
        assert all(c.holds for c in checks)

    def test_improvement_value_matches_hand_computation(self):
        checks = summary_claims(_synthetic_fig3())
        sync_claim = checks[0]
        # mean baseline 22, mean G-OPT 7 -> (22-7)/22 = 68.2%
        assert sync_claim.value == pytest.approx(100 * (22 - 7) / 22, abs=0.1)

    def test_gap_claim_detects_violation(self):
        figure = _synthetic_fig3()
        figure.series["G-OPT"] = [10.0, 12.0]  # gap of 5 rounds vs OPT
        checks = summary_claims(figure)
        gap_claim = next(c for c in checks if "within 2 rounds" in c.claim)
        assert not gap_claim.holds

    def test_claims_text_rendering(self):
        text = claims_to_text(summary_claims(_synthetic_fig3()))
        assert "claim" in text
        assert "26-approximation" in text


class TestCli:
    def test_parser_targets(self):
        parser = build_parser()
        args = parser.parse_args(["figure3", "--scale", "quick"])
        assert args.target == "figure3"
        assert args.scale == "quick"

    def test_invalid_target_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure99"])

    def test_main_runs_tables_without_sweeps(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "P(A) = 2" in output

    def test_main_writes_csv_for_figures(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        exit_code = main(
            ["figure3", "--scale", "quick", "--repetitions", "1", "--csv-dir", str(tmp_path)]
        )
        assert exit_code == 0
        csv_path = tmp_path / "figure3.csv"
        assert csv_path.exists()
        assert "G-OPT" in csv_path.read_text()
        assert "Figure 3" in capsys.readouterr().out


class TestClaimExitCodes:
    """Every claim target exits 1 when one of its claims fails."""

    _TARGETS = pytest.mark.parametrize(
        ("argv", "figures", "claims"),
        [
            (["claims"], ["figure3", "figure4", "figure6"], "summary_claims"),
            (["reliability", "--loss", "0.0,0.1"], ["figure_reliability"], "reliability_claims"),
            (["multisource", "--sources", "1,2"], ["figure_multisource"], "multisource_claims"),
            (["ratio"], ["figure_ratio"], "ratio_claims"),
        ],
        ids=["claims", "reliability", "multisource", "ratio"],
    )

    @staticmethod
    def _run(monkeypatch, argv, figures, claims, checks):
        for name in figures:
            monkeypatch.setattr(figures_mod, name, lambda *args, **kwargs: _synthetic_fig3())
        monkeypatch.setattr(cli_mod, claims, lambda *args: checks)
        return main(argv)

    @_TARGETS
    def test_failed_claim_exits_one(self, monkeypatch, capsys, argv, figures, claims):
        held = ClaimCheck("kept", "-", "-", 1.0, True)
        failed = ClaimCheck("doctored", "-", "-", 0.0, False)
        assert self._run(monkeypatch, argv, figures, claims, [held, failed]) == 1
        out = capsys.readouterr().out
        assert "doctored" in out
        assert f"{argv[0]}: 1/2 claims hold" in out

    @pytest.mark.parametrize(
        ("argv", "figure", "claims"),
        [
            (["reliability", "--loss", "0.0,0.1"], "figure_reliability", "reliability_claims"),
            (["multisource", "--sources", "1,2"], "figure_multisource", "multisource_claims"),
            (["ratio"], "figure_ratio", "ratio_claims"),
        ],
        ids=["reliability", "multisource", "ratio"],
    )
    def test_claim_target_writes_its_figure_csv(
        self, monkeypatch, capsys, tmp_path, argv, figure, claims
    ):
        held = ClaimCheck("kept", "-", "-", 1.0, True)
        argv = [*argv, "--csv-dir", str(tmp_path)]
        assert self._run(monkeypatch, argv, [figure], claims, [held]) == 0
        assert (tmp_path / f"{argv[0]}.csv").read_text() == _synthetic_fig3().to_csv()
        assert f"{argv[0]}: 1/1 claims hold" in capsys.readouterr().out

    @_TARGETS
    def test_held_claims_exit_zero(self, monkeypatch, capsys, argv, figures, claims):
        held = ClaimCheck("kept", "-", "-", 1.0, True)
        assert self._run(monkeypatch, argv, figures, claims, [held, held]) == 0
        assert f"{argv[0]}: 2/2 claims hold" in capsys.readouterr().out


class TestScenarioCli:
    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("uniform", "clustered", "corridor", "ring",
                     "perturbed-grid", "grid-holes", "knn"):
            assert name in output

    def test_list_duty_models(self, capsys):
        assert main(["--list-duty-models"]) == 0
        output = capsys.readouterr().out
        assert "two-tier" in output
        assert "zipf" in output

    def test_default_target_is_sweep(self):
        args = build_parser().parse_args(["--scenario", "clustered"])
        assert args.target == "sweep"
        assert args.scenario == "clustered"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "torus"])

    @pytest.mark.parametrize(
        "retired",
        [["--engine", "batched"], ["--batch", "4"], ["--profile"]],
        ids=["engine-batched", "batch", "profile"],
    )
    def test_retired_sweep_options_rejected(self, retired):
        # The batched stripe executor and its knobs are gone: argparse
        # rejects them rather than silently running the per-cell path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", *retired])

    def test_scenario_rejected_for_paper_targets(self, capsys):
        # Paper figures/claims keep the paper's labels and thresholds, so
        # the scenario axes are restricted to the sweep/scenarios targets.
        with pytest.raises(SystemExit):
            main(["figure4", "--scenario", "corridor"])
        assert "sweep" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["claims", "--duty-model", "zipf"])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--scenario", "ring"],
            ["--duty-model", "zipf"],
            ["--loss", "0.1"],
            ["--link-model", "independent-loss"],
            ["--sources", "2"],
            ["--source-placement", "corner"],
            ["--solver", "exact"],
        ],
        ids=lambda flag: flag[0].lstrip("-"),
    )
    def test_non_paper_flag_error_names_every_workload_target(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["figure3", *flag])
        error = capsys.readouterr().err
        assert f"{flag[0]} only applies to the " in error
        for target in (
            "sweep",
            "scenarios",
            "reliability",
            "multisource",
            "ratio",
            "fabric",
            "monitor",
        ):
            assert repr(target) in error

    def test_explicit_uniform_allowed_for_paper_targets(self):
        args = build_parser().parse_args(["table2", "--scenario", "uniform"])
        assert main(["table2", "--scenario", "uniform"]) == 0
        assert args.scenario == "uniform"

    def test_malformed_nodes_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--nodes", "50,abc"])
        assert "comma-separated integers" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--nodes", ","])

    def test_sweep_target_prints_records(self, capsys):
        exit_code = main(
            ["sweep", "--scenario", "ring", "--duty-model", "two-tier",
             "--nodes", "24", "--repetitions", "1", "--rate", "5",
             "--engine", "vectorized"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "scenario=ring duty_model=two-tier" in output
        assert "policy,system,rate,scenario,duty_model" in output
        assert ",ring,two-tier," in output

    def test_sweep_output_worker_invariant(self, capsys):
        argv = ["sweep", "--scenario", "clustered", "--nodes", "24",
                "--repetitions", "1", "--rate", "5", "--engine", "vectorized"]
        assert main([*argv, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_scenarios_target_compares_policies(self, capsys, tmp_path):
        # 50 nodes: the paper's minimum density (a 24-node uniform deployment
        # over the full 50x50 area is too sparse to connect).
        exit_code = main(
            ["scenarios", "--nodes", "50", "--repetitions", "1", "--rate", "5",
             "--engine", "vectorized", "--csv-dir", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Scenario comparison" in output
        assert "corridor" in output
        assert (tmp_path / "scenarios.csv").exists()
