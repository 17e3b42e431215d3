"""Unit tests for repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    require,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)
