"""Unit tests for the multi-source experiment wiring (figure, claims, CLI)."""

from __future__ import annotations

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.cli import build_parser, main
from repro.experiments.config import SweepConfig
from repro.experiments.figures import (
    DEFAULT_SOURCE_COUNTS,
    ENERGY_SUFFIX,
    FigureResult,
    figure_multisource,
)
from repro.experiments.report import multisource_claims
from repro.experiments.runner import default_policies, run_sweep


def _config(**overrides) -> SweepConfig:
    base = dict(
        node_counts=(24,),
        repetitions=1,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        source_min_ecc=2,
        source_max_ecc=None,
        area_side=22.0,
        radius=7.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_defaults_are_single_source(self):
        config = SweepConfig()
        assert config.n_sources == 1
        assert config.source_placement == "random"

    def test_with_sources(self):
        config = _config().with_sources(3, placement="corner")
        assert config.n_sources == 3
        assert config.source_placement == "corner"

    def test_invalid_source_count_rejected(self):
        with pytest.raises(ValueError):
            _config(n_sources=0)
        with pytest.raises(ValueError):
            _config(n_sources=25)  # exceeds the 24-node smallest count

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="source placement"):
            _config(source_placement="nope")

    def test_multi_source_drops_planned_baselines(self):
        single = default_policies(_config(), "duty")
        multi = default_policies(_config(n_sources=2), "duty")
        assert "17-approx" in single
        assert "17-approx" not in multi
        assert {"OPT", "G-OPT", "E-model"} <= set(multi)


class TestFigureMultisource:
    def test_latency_and_energy_series_per_policy(self):
        figure = figure_multisource(
            _config(), source_counts=(1, 2), system="duty", rate=6
        )
        assert figure.x_values == (1.0, 2.0)
        policies = [n for n in figure.series if not n.endswith(ENERGY_SUFFIX)]
        assert policies  # at least the frontier schedulers
        for policy in policies:
            assert f"{policy}{ENERGY_SUFFIX}" in figure.series
            assert len(figure.series[policy]) == 2
        # Claims hold on a real (if tiny) figure.
        checks = multisource_claims(figure)
        assert len(checks) == 2 * len(policies)
        assert all(check.holds for check in checks)

    def test_k1_column_matches_plain_sweep(self):
        config = _config()
        figure = figure_multisource(
            config, source_counts=(1,), system="sync", placement="spread"
        )
        line_up = default_policies(config.with_sources(2), "sync")
        plain = run_sweep(
            config.with_sources(1, placement="spread"),
            system="sync",
            policies=line_up,
        )
        for policy in plain.policies:
            expected = sum(
                r.latency for r in plain.records_for(policy)
            ) / len(plain.records_for(policy))
            assert figure.series_for(policy)[0] == pytest.approx(expected)

    def test_default_source_counts(self):
        assert DEFAULT_SOURCE_COUNTS == (1, 2, 4)


class TestMultisourceClaims:
    def _figure(self, makespans, energies) -> FigureResult:
        return FigureResult(
            name="Multi-source",
            title="synthetic",
            x_label="concurrent messages k",
            x_values=(1.0, 2.0, 4.0),
            series={"E-model": makespans, f"E-model{ENERGY_SUFFIX}": energies},
        )

    def test_claims_hold_on_monotone_series(self):
        checks = multisource_claims(
            self._figure([10.0, 14.0, 21.0], [100.0, 180.0, 350.0])
        )
        assert len(checks) == 2
        assert all(check.holds for check in checks)

    def test_shrinking_makespan_flagged(self):
        checks = multisource_claims(
            self._figure([10.0, 9.0, 8.0], [100.0, 180.0, 350.0])
        )
        makespan_claim = next(c for c in checks if "makespan" in c.claim)
        assert not makespan_claim.holds


class TestCli:
    def test_parser_accepts_sources_and_placement(self):
        args = build_parser().parse_args(
            ["--sources", "3", "--source-placement", "spread"]
        )
        assert args.sources == (3,)
        assert args.source_placement == "spread"

    def test_sources_list_for_multisource_target(self):
        args = build_parser().parse_args(["multisource", "--sources", "1,2,4"])
        assert args.sources == (1, 2, 4)

    def test_malformed_sources_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sources", "two"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sources", "0"])

    def test_sources_rejected_for_paper_targets(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3", "--sources", "2"])
        error = capsys.readouterr().err
        assert "--sources" in error

    def test_plural_sources_rejected_for_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--sources", "1,2"])
        error = capsys.readouterr().err
        assert "multisource" in error

    def test_single_source_count_allowed_for_paper_targets(self):
        # --sources 1 is exactly the paper's workload (like --loss 0.0).
        args = build_parser().parse_args(["figure3", "--sources", "1"])
        assert args.sources == (1,)

    def test_sweep_records_carry_multisource_columns(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--nodes",
                "50",
                "--repetitions",
                "1",
                "--sources",
                "2",
                "--source-placement",
                "corner",
                "--rate",
                "6",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sources=2" in output
        assert "placement=corner" in output
        assert "n_sources" in output
        assert "total_energy" in output

    def test_multisource_target_prints_figure(self, capsys, tmp_path):
        exit_code = main(
            [
                "multisource",
                "--sources",
                "1,2",
                "--nodes",
                "50",
                "--repetitions",
                "1",
                "--rate",
                "6",
                "--csv-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Multi-source" in output
        assert ENERGY_SUFFIX.strip() in output
        assert "multisource: 6/6 claims hold" in output
        assert (tmp_path / "multisource.csv").exists()
