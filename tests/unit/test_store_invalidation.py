"""Cache-invalidation contract: what must (and must not) change a digest.

The store is only safe if every record-affecting configuration axis moves
the :class:`~repro.store.CellKey` digest (a stale cell must never be
returned for a changed workload) while the execution-only knobs leave it
alone (a cached cell must be reusable across engines, worker counts and
grid extensions).  A digest is also only useful if it is stable across
*processes* — two sweeps of the same config in different interpreters must
converge on the same addresses.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.config import CELL_KEY_EXCLUDED_FIELDS, SweepConfig
from repro.store import STORE_SCHEMA_VERSION, cell_key_for


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


def _digest(config: SweepConfig, **overrides) -> str:
    values = dict(
        system="duty",
        rate=10,
        num_nodes=16,
        repetition=0,
        policies=("17-approx", "E-model"),
    )
    values.update(overrides)
    return cell_key_for(config, **values).digest


#: One record-affecting change per axis of the workload space.
_INVALIDATING_CHANGES = {
    "loss axis": dict(link_model="independent-loss", loss_probability=0.2),
    "loss probability": dict(link_model="independent-loss", loss_probability=0.3),
    "duty model": dict(duty_model="two-tier"),
    "scenario": dict(scenario="clustered"),
    "n_sources": dict(n_sources=4),
    "source placement": dict(source_placement="spread"),
    "base seed": dict(seed=2013),
    "geometry (radius)": dict(radius=5.0),
    "geometry (area)": dict(area_side=12.0),
    "source eccentricity": dict(source_min_ecc=2),
    "search beam": dict(search=SearchConfig(mode="beam", beam_width=3)),
    "colour cap": dict(max_color_classes=8),
    # The solver tier changes the policy line-up (17-approx fits this
    # config's 24-node grid; the exact tier would reject it at 16).
    "solver tier": dict(solver="17-approx"),
}


@pytest.mark.parametrize("axis", sorted(_INVALIDATING_CHANGES))
def test_config_axis_change_forces_rerun(config, axis):
    changed = dataclasses.replace(config, **_INVALIDATING_CHANGES[axis])
    assert _digest(changed) != _digest(config), f"{axis} did not invalidate"


def test_schema_version_bump_forces_rerun(config):
    base = _digest(config)
    bumped = cell_key_for(
        config,
        system="duty",
        rate=10,
        num_nodes=16,
        repetition=0,
        policies=("17-approx", "E-model"),
        schema_version=STORE_SCHEMA_VERSION + 1,
    ).digest
    assert bumped != base


def test_execution_knobs_do_not_invalidate(config):
    """Engine, workers and the grid shape are excluded by contract."""
    base = _digest(config)
    assert _digest(dataclasses.replace(config, engine="vectorized")) == base
    assert _digest(dataclasses.replace(config, workers=8)) == base
    assert _digest(dataclasses.replace(config, node_counts=(16, 24, 32))) == base
    assert _digest(dataclasses.replace(config, repetitions=7)) == base
    excluded = {"engine", "workers", "node_counts", "repetitions"}
    assert CELL_KEY_EXCLUDED_FIELDS == frozenset(excluded)


def _digest_in_child(payload: bytes) -> str:
    config, kwargs = pickle.loads(payload)
    return cell_key_for(config, **kwargs).digest


def test_identical_configs_share_digests_across_processes(config):
    """Two processes with the same config converge on the same address."""
    kwargs = dict(
        system="duty",
        rate=10,
        num_nodes=16,
        repetition=0,
        policies=("17-approx", "E-model"),
    )
    payload = pickle.dumps((config, kwargs))
    # "spawn" gives a fresh interpreter, the strongest cross-process check
    # (no inherited hash seeds or module state).
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        child_digest = pool.apply(_digest_in_child, (payload,))
    assert child_digest == cell_key_for(config, **kwargs).digest
