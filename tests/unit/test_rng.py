"""Unit tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import derive_seed, derive_seeds, make_rng, spawn_seeds


class TestMakeRng:
    def test_deterministic_for_same_seed(self):
        a = make_rng(42).integers(0, 1_000_000, size=10)
        b = make_rng(42).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1_000_000, size=10)
        b = make_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_none_seed_returns_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "wakeup", 3) == derive_seed(7, "wakeup", 3)

    def test_component_sensitivity(self):
        assert derive_seed(7, "wakeup", 3) != derive_seed(7, "wakeup", 4)
        assert derive_seed(7, "wakeup", 3) != derive_seed(7, "deploy", 3)

    def test_base_seed_sensitivity(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_adjacent_seeds_not_correlated_trivially(self):
        # Hash-based derivation should not map consecutive bases to
        # consecutive outputs.
        assert abs(derive_seed(1) - derive_seed(2)) > 1

    def test_non_negative_63bit(self):
        for base in (0, 1, 2**31, 2**62):
            value = derive_seed(base, "component")
            assert 0 <= value < 2**63


class TestSpawnSeeds:
    def test_count(self):
        assert len(spawn_seeds(3, 5, "path")) == 5

    def test_unique(self):
        seeds = spawn_seeds(3, 50, "path")
        assert len(set(seeds)) == 50

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(3, -1)


class TestDeriveSeeds:
    def test_equals_one_derive_seed_per_leaf(self):
        leaves = [0, 1, 17, "x", (2, 3)]
        assert derive_seeds(7, leaves, "wakeup") == [
            derive_seed(7, "wakeup", leaf) for leaf in leaves
        ]
        assert derive_seeds(7, leaves) == [derive_seed(7, leaf) for leaf in leaves]
        assert derive_seeds(7, []) == []
