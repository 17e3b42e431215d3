"""Heterogeneous duty-cycle models and per-node rates in WakeupSchedule."""

from __future__ import annotations

import pytest

from repro.dutycycle.models import (
    assign_rates,
    build_wakeup_schedule,
    duty_model_names,
    get_duty_model,
    list_duty_models,
)
from repro.dutycycle.schedule import WakeupSchedule

NODES = tuple(range(40))


class TestRegistry:
    def test_builtin_models_registered(self):
        assert {"uniform", "two-tier", "zipf"} <= set(duty_model_names())

    def test_specs_have_summaries(self):
        for spec in list_duty_models():
            assert spec.summary

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown duty model"):
            get_duty_model("fibonacci")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown parameters"):
            assign_rates("two-tier", NODES, 10, seed=0, tiers=3)


class TestAssignments:
    def test_uniform_assigns_base_rate_everywhere(self):
        rates = assign_rates("uniform", NODES, 10, seed=0)
        assert rates == {u: 10 for u in NODES}

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_deterministic_under_fixed_seed(self, model):
        assert assign_rates(model, NODES, 10, seed=5) == assign_rates(
            model, NODES, 10, seed=5
        )

    @pytest.mark.parametrize("model", ["two-tier", "zipf"])
    def test_rates_positive_and_heterogeneous(self, model):
        rates = assign_rates(model, NODES, 10, seed=1)
        assert all(r >= 1 for r in rates.values())
        assert len(set(rates.values())) > 1

    def test_two_tier_fraction_and_rates(self):
        rates = assign_rates(
            "two-tier", NODES, 10, seed=3, fast_fraction=0.25, fast_factor=0.2
        )
        fast = [u for u, r in rates.items() if r == 2]
        slow = [u for u, r in rates.items() if r == 10]
        assert len(fast) == round(0.25 * len(NODES))
        assert len(fast) + len(slow) == len(NODES)

    def test_zipf_rates_capped(self):
        rates = assign_rates("zipf", NODES, 10, seed=2, max_factor=3.0)
        assert max(rates.values()) <= 30
        assert min(rates.values()) == 10  # factor 1 keeps the base rate


class TestScheduleRates:
    def test_schedule_exposes_per_node_rates(self):
        rates = {u: (5 if u % 2 else 20) for u in NODES}
        schedule = WakeupSchedule(NODES, 10, seed=0, rates=rates)
        assert schedule.rate == 10
        assert schedule.max_rate == 20
        assert schedule.is_heterogeneous
        assert schedule.rate_of(1) == 5
        assert schedule.rate_of(0) == 20
        assert schedule.rates == rates

    def test_one_wakeup_per_cycle_per_node(self):
        rates = {u: (4 if u < 20 else 12) for u in NODES}
        schedule = WakeupSchedule(NODES, 8, seed=1, rates=rates)
        for u in (0, 5, 25, 39):
            r = schedule.rate_of(u)
            slots = schedule.active_slots_until(u, 10 * r)
            assert len(slots) == 10
            for k, slot in enumerate(slots):
                assert k * r + 1 <= slot <= (k + 1) * r

    def test_rates_for_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown nodes"):
            WakeupSchedule(NODES, 10, rates={999: 5})

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            WakeupSchedule(NODES, 10, rates={0: 0})

    def test_homogeneous_schedule_unchanged_by_rates_api(self):
        plain = WakeupSchedule(NODES, 10, seed=7)
        via_model = build_wakeup_schedule(NODES, 10, seed=7, model="uniform")
        for u in NODES:
            assert plain.active_slots_until(u, 300) == via_model.active_slots_until(u, 300)
        assert plain.max_rate == plain.rate == 10
        assert not plain.is_heterogeneous

    def test_node_stream_independent_of_other_nodes_rates(self):
        # The wake-up stream of a node depends on (seed, node, its rate)
        # only, never on the rest of the assignment.
        a = WakeupSchedule(NODES, 10, seed=3, rates={0: 10, 1: 40})
        b = WakeupSchedule(NODES, 10, seed=3)
        assert a.active_slots_until(0, 400) == b.active_slots_until(0, 400)

    def test_build_wakeup_schedule_model_seed_split(self):
        a = build_wakeup_schedule(NODES, 10, seed=1, model="two-tier", model_seed=2)
        b = build_wakeup_schedule(NODES, 10, seed=1, model="two-tier", model_seed=3)
        assert a.rates != b.rates  # different assignment ...
        shared = [u for u in NODES if a.rate_of(u) == b.rate_of(u)]
        for u in shared[:5]:  # ... but identical streams where rates agree
            assert a.active_slots_until(u, 200) == b.active_slots_until(u, 200)


class TestBuildOverrides:
    @staticmethod
    def assert_same_schedule(a: WakeupSchedule, b: WakeupSchedule, horizon: int) -> None:
        assert a.rates == b.rates
        assert (a.rate, a.max_rate) == (b.rate, b.max_rate)
        for u in NODES:
            assert a.active_slots_until(u, horizon) == b.active_slots_until(u, horizon)

    @pytest.mark.parametrize("rate", [1, 4, 10, 50])
    @pytest.mark.parametrize("seed", [0, 7, 2012, None])
    def test_uniform_equals_the_plain_schedule(self, rate, seed):
        self.assert_same_schedule(
            build_wakeup_schedule(NODES, rate, seed=seed),
            WakeupSchedule(NODES, rate, seed=seed),
            horizon=20 * rate,
        )

    def test_uniform_passes_no_overrides(self, monkeypatch):
        import repro.dutycycle.models as models

        passed = []

        def record(node_ids, rate, *, seed, rates):
            passed.append(rates)
            return WakeupSchedule(node_ids, rate, seed=seed, rates=rates)

        monkeypatch.setattr(models, "WakeupSchedule", record)
        build_wakeup_schedule(NODES, 10, seed=3)
        build_wakeup_schedule(NODES, 10, seed=3, model="uniform")
        assert passed == [{}, {}]

    def test_uniform_still_rejects_unknown_parameters(self):
        with pytest.raises(TypeError, match="unknown parameters"):
            build_wakeup_schedule(NODES, 10, model="uniform", fast_fraction=0.5)

    @pytest.mark.parametrize("model", ["two-tier", "zipf"])
    @pytest.mark.parametrize("seed", [1, 9])
    def test_heterogeneous_models_equal_the_full_assignment(self, model, seed):
        full = assign_rates(model, NODES, 10, seed=seed)
        assert set(full.values()) != {10}
        self.assert_same_schedule(
            build_wakeup_schedule(NODES, 10, seed=seed, model=model),
            WakeupSchedule(NODES, 10, seed=seed, rates=full),
            horizon=400,
        )
