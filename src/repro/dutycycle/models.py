"""Named heterogeneous duty-cycle assignment models.

The paper gives every node the same cycle rate ``r``.  This module opens the
second workload axis: a *duty model* maps ``(node_ids, base_rate, rng)`` to a
per-node rate assignment, which :func:`build_wakeup_schedule` threads into
:class:`~repro.dutycycle.schedule.WakeupSchedule` via its ``rates=``
parameter.  Like scenarios, duty models are registered by name so the sweep
runner and the CLI (``--duty-model``, ``--list-duty-models``) can select
them without code changes.

Determinism contract: an assignment is a pure function of
``(model, node_ids, base_rate, params, seed)`` — the sweep runner derives
the seed per grid cell, so records stay bit-identical for any worker count.

Built-in models
---------------
``uniform``
    Every node at the base rate (the paper's setting; the default).
``two-tier``
    A random fraction of *backbone* nodes gets the shorter cycle
    ``base_rate * fast_factor`` (e.g. ``fast_factor=0.2`` turns ``r = 10``
    into ``r = 2``, i.e. 5x more wake-ups); the rest stay at the base
    rate.  Models mains-powered relays among battery nodes.
``zipf``
    Rates are the base rate scaled by a Zipf-distributed integer factor
    (capped at ``max_factor``): most nodes are at the base rate, a heavy
    tail sleeps much longer.  Models aggressive energy saving on a few
    nearly-depleted nodes.

Note: the E-model policy's expected-CWT edge weight
(:func:`repro.core.estimation.build_edge_estimate`) keeps using the base
rate — it is a scheduling heuristic, and simulated latencies remain exact
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.dutycycle.schedule import WakeupSchedule
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "DutyModelSpec",
    "DUTY_MODELS",
    "register_duty_model",
    "get_duty_model",
    "list_duty_models",
    "duty_model_names",
    "assign_rates",
    "build_wakeup_schedule",
]

#: Assignment signature: ``(node_ids, base_rate, rng, **params) -> rates``.
RateAssigner = Callable[..., dict[int, int]]


@dataclass(frozen=True)
class DutyModelSpec:
    """One named per-node duty-cycle rate assignment model."""

    name: str
    summary: str
    assign: RateAssigner
    defaults: Mapping[str, object] = field(default_factory=dict)


#: The global duty-model registry, keyed by model name.
DUTY_MODELS: dict[str, DutyModelSpec] = {}


def register_duty_model(spec: DutyModelSpec) -> DutyModelSpec:
    """Add ``spec`` to :data:`DUTY_MODELS` (refusing duplicate names)."""
    if spec.name in DUTY_MODELS:
        raise ValueError(f"duty model {spec.name!r} is already registered")
    DUTY_MODELS[spec.name] = spec
    return spec


def get_duty_model(name: str) -> DutyModelSpec:
    """Look up a duty model by name, with a helpful error on typos."""
    try:
        return DUTY_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown duty model {name!r}; registered models: {duty_model_names()}"
        ) from None


def duty_model_names() -> list[str]:
    """The registered duty-model names, sorted."""
    return sorted(DUTY_MODELS)


def list_duty_models() -> list[DutyModelSpec]:
    """All registered duty-model specs, sorted by name."""
    return [DUTY_MODELS[name] for name in duty_model_names()]


def assign_rates(
    name: str,
    node_ids: Iterable[int],
    base_rate: int,
    *,
    seed: int | None = None,
    **params: object,
) -> dict[int, int]:
    """Per-node cycle rates for the named model (all values >= 1)."""
    spec = get_duty_model(name)
    require(base_rate >= 1, f"base rate must be >= 1, got {base_rate}")
    merged = {**spec.defaults, **params}
    unknown = set(merged) - set(spec.defaults)
    if unknown:
        raise TypeError(
            f"duty model {name!r} got unknown parameters {sorted(unknown)}; "
            f"accepted: {sorted(spec.defaults)}"
        )
    ids = sorted(set(int(u) for u in node_ids))
    rates = spec.assign(ids, int(base_rate), make_rng(seed), **merged)
    # Real checks, not asserts: a third-party model violating the contract
    # would otherwise silently mis-size the engines' worst-case slot caps.
    require(
        set(rates) == set(ids),
        f"duty model {name!r} must assign a rate to every node",
    )
    require(
        all(r >= 1 for r in rates.values()),
        f"duty model {name!r} produced a rate < 1",
    )
    return rates


def build_wakeup_schedule(
    node_ids: Iterable[int],
    rate: int,
    *,
    seed: int | None = 0,
    model: str = "uniform",
    model_seed: int | None = None,
    **params: object,
) -> WakeupSchedule:
    """A :class:`WakeupSchedule` with rates assigned by the named model.

    ``seed`` drives the per-node wake-up streams exactly as in
    ``WakeupSchedule(node_ids, rate, seed=seed)``; ``model_seed`` drives the
    rate assignment (defaulting to ``seed`` so one seed fixes everything).
    With ``model="uniform"`` the result is bit-identical to constructing
    :class:`WakeupSchedule` directly.  Only the rates that differ from
    ``rate`` are passed on as overrides, so ``uniform`` (which assigns
    every node the base rate) passes none.
    """
    ids = list(node_ids)
    effective_model_seed = seed if model_seed is None else model_seed
    rates = assign_rates(model, ids, rate, seed=effective_model_seed, **params)
    overrides = {u: r for u, r in rates.items() if r != rate}
    return WakeupSchedule(ids, rate, seed=seed, rates=overrides)


# ----------------------------------------------------------------------
# Built-in models
# ----------------------------------------------------------------------
def _assign_uniform(
    node_ids: Sequence[int], base_rate: int, rng: np.random.Generator
) -> dict[int, int]:
    """Every node at the base rate (the paper's homogeneous setting)."""
    return {u: base_rate for u in node_ids}


def _assign_two_tier(
    node_ids: Sequence[int],
    base_rate: int,
    rng: np.random.Generator,
    *,
    fast_fraction: float = 0.2,
    fast_factor: float = 0.2,
) -> dict[int, int]:
    """A random backbone fraction cycles faster; the rest keep the base rate.

    Backbone nodes get ``max(1, round(base_rate * fast_factor))`` — e.g. the
    default turns ``r = 10`` into ``r = 2`` for 20% of the nodes.
    """
    require(0.0 <= fast_fraction <= 1.0, "fast_fraction must be in [0, 1]")
    require(0.0 < fast_factor <= 1.0, "fast_factor must be in (0, 1]")
    fast_rate = max(1, round(base_rate * fast_factor))
    count = round(fast_fraction * len(node_ids))
    fast = set()
    if count:
        chosen = rng.choice(len(node_ids), size=count, replace=False)
        fast = {node_ids[i] for i in chosen}
    return {u: (fast_rate if u in fast else base_rate) for u in node_ids}


def _assign_zipf(
    node_ids: Sequence[int],
    base_rate: int,
    rng: np.random.Generator,
    *,
    exponent: float = 2.0,
    max_factor: float = 4.0,
) -> dict[int, int]:
    """Base rate scaled by a capped Zipf factor: a heavy tail of sleepers."""
    require(exponent > 1.0, "exponent must be > 1 (Zipf normalisation)")
    require(max_factor >= 1.0, "max_factor must be >= 1")
    cap = max(base_rate, math.ceil(base_rate * max_factor))
    factors = rng.zipf(exponent, size=len(node_ids))
    return {
        u: min(int(base_rate * int(f)), cap) for u, f in zip(node_ids, factors)
    }


register_duty_model(
    DutyModelSpec(
        name="uniform",
        summary="Every node at the base rate r (the paper's setting)",
        assign=_assign_uniform,
        defaults={},
    )
)
register_duty_model(
    DutyModelSpec(
        name="two-tier",
        summary="A backbone fraction gets the shorter cycle fast_factor x base (mains-powered relays)",
        assign=_assign_two_tier,
        defaults={"fast_fraction": 0.2, "fast_factor": 0.2},
    )
)
register_duty_model(
    DutyModelSpec(
        name="zipf",
        summary="Zipf-scaled rates capped at max_factor x base (heavy tail of sleepers)",
        assign=_assign_zipf,
        defaults={"exponent": 2.0, "max_factor": 4.0},
    )
)
