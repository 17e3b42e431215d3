"""Unit tests for repro.experiments.config."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    PAPER_SWEEP,
    QUICK_SWEEP,
    SCALE_ENV_VAR,
    ExperimentScale,
    SweepConfig,
    sweep_from_env,
)


class TestSweepConfig:
    def test_paper_defaults_match_section_5a(self):
        assert PAPER_SWEEP.node_counts == (50, 100, 150, 200, 250, 300)
        assert PAPER_SWEEP.area_side == 50.0
        assert PAPER_SWEEP.radius == 10.0
        assert PAPER_SWEEP.source_min_ecc == 5
        assert PAPER_SWEEP.source_max_ecc == 8

    def test_duty_rates_field_is_retired(self):
        # The figures fix their own rates; the field shaped no record.
        with pytest.raises(TypeError, match="duty_rates"):
            SweepConfig(duty_rates=(10, 50))  # type: ignore[call-arg]
        assert "duty_rates" not in PAPER_SWEEP.cell_key_fields()

    def test_densities_span_paper_range(self):
        densities = PAPER_SWEEP.densities
        assert densities[0] == pytest.approx(0.02)
        assert densities[-1] == pytest.approx(0.12)

    def test_quick_sweep_is_subset(self):
        assert set(QUICK_SWEEP.node_counts) <= set(PAPER_SWEEP.node_counts)
        assert QUICK_SWEEP.repetitions <= PAPER_SWEEP.repetitions

    def test_with_repetitions(self):
        assert QUICK_SWEEP.with_repetitions(7).repetitions == 7
        assert QUICK_SWEEP.repetitions != 7  # original untouched

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SweepConfig(node_counts=())
        with pytest.raises(ValueError):
            SweepConfig(node_counts=(1,))
        with pytest.raises(ValueError):
            SweepConfig(repetitions=0)
        with pytest.raises(ValueError):
            SweepConfig(engine="warp-drive")
        with pytest.raises(ValueError):
            SweepConfig(engine="batched")

    @pytest.mark.parametrize("cap", [0, -3])
    def test_colour_cap_below_one_rejected(self, cap):
        # A cap below 1 would silently act as a cap of 1.
        with pytest.raises(ValueError, match="max_color_classes"):
            SweepConfig(max_color_classes=cap)
        assert SweepConfig(max_color_classes=None).max_color_classes is None


class TestSweepFromEnv:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV_VAR, raising=False)
        assert sweep_from_env() == QUICK_SWEEP

    def test_paper_scale_selected(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "paper")
        assert sweep_from_env() == PAPER_SWEEP

    def test_unknown_value_falls_back_to_quick(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "huge")
        assert sweep_from_env() == QUICK_SWEEP

    def test_explicit_default_override(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV_VAR, raising=False)
        assert sweep_from_env(ExperimentScale.PAPER) == PAPER_SWEEP
