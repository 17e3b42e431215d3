"""The parallel sweep runner: determinism, chunking, engine switch."""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy
from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import (
    SweepCell,
    _run_cell,
    default_policies,
    run_sweep,
    sweep_cells,
)


@pytest.fixture(scope="module")
def tiny_config() -> SweepConfig:
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


@pytest.fixture(scope="module")
def cheap_policies():
    return {"17-approx": Approx17Policy, "E-model": EModelPolicy}


def test_parallel_records_match_serial(tiny_config, cheap_policies):
    serial = run_sweep(
        tiny_config, system="duty", rate=5, policies=cheap_policies, workers=1
    )
    parallel = run_sweep(
        tiny_config, system="duty", rate=5, policies=cheap_policies, workers=2
    )
    assert serial.records == parallel.records
    assert len(serial.records) == 2 * 2 * len(cheap_policies)


def test_vectorized_engine_matches_reference(tiny_config, cheap_policies):
    reference = run_sweep(
        tiny_config, system="duty", rate=5, policies=cheap_policies, workers=1
    )
    vectorized = run_sweep(
        tiny_config,
        system="duty",
        rate=5,
        policies=cheap_policies,
        workers=2,
        engine="vectorized",
    )
    assert reference.records == vectorized.records


def test_sync_parallel_matches_serial(tiny_config):
    policies = {"26-approx": Approx26Policy, "E-model": EModelPolicy}
    serial = run_sweep(tiny_config, system="sync", policies=policies, workers=1)
    parallel = run_sweep(tiny_config, system="sync", policies=policies, workers=3)
    assert serial.records == parallel.records
    assert all(record.rate == 1 for record in serial.records)


def test_config_drives_workers_and_engine(tiny_config, cheap_policies):
    import dataclasses

    configured = dataclasses.replace(tiny_config, workers=2, engine="vectorized")
    implicit = run_sweep(configured, system="duty", rate=5, policies=cheap_policies)
    explicit = run_sweep(
        tiny_config, system="duty", rate=5, policies=cheap_policies,
        workers=1, engine="reference",
    )
    assert implicit.records == explicit.records


def test_default_policies_are_picklable(tiny_config):
    for system in ("sync", "duty"):
        policies = default_policies(tiny_config, system)
        assert len(policies) == 4
        revived = pickle.loads(pickle.dumps(tuple(policies.items())))
        for (name, factory), (name2, factory2) in zip(policies.items(), revived):
            assert name == name2
            assert type(factory2()) is type(factory())


def test_spawned_workers_unpickle_the_policy_factories(tiny_config):
    # "spawn" (the pool's start method off Linux) unpickles every cell's
    # policy factories in a fresh interpreter, where the packages resolve
    # their names lazily.
    import multiprocessing

    cells = sweep_cells(
        tiny_config,
        system="duty",
        rate=5,
        policies=default_policies(tiny_config, "duty"),
    )[:2]
    with multiprocessing.get_context("spawn").Pool(processes=2) as pool:
        spawned = pool.map_async(_run_cell, cells).get(timeout=120)
    assert spawned == [_run_cell(cell) for cell in cells]


def test_cells_are_picklable_and_self_contained(tiny_config, cheap_policies):
    cell = SweepCell(
        config=tiny_config,
        system="duty",
        rate=5,
        num_nodes=16,
        repetition=0,
        engine="reference",
        policies=tuple(cheap_policies.items()),
    )
    records = _run_cell(pickle.loads(pickle.dumps(cell)))
    assert {r.policy for r in records} == set(cheap_policies)
    assert all(r.num_nodes == 16 and r.repetition == 0 for r in records)


def test_invalid_arguments_rejected(tiny_config):
    with pytest.raises(ValueError, match="unknown system"):
        run_sweep(tiny_config, system="hybrid")
    with pytest.raises(ValueError, match="unknown engine"):
        SweepConfig(node_counts=(16,), engine="warp")
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(node_counts=(16,), workers=-1)
