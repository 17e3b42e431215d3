"""Ablation A2: the Eq. (11) weight used by the asynchronous E-model.

The paper constructs the duty-cycle estimate with cycle-waiting-time weights
``t(u, v)``; proactively those are not known exactly, so our default uses the
expectation ``(r + 1) / 2`` per hop (docs/design.md, "Cycle-waiting
weights").  This ablation compares the expected-CWT weighting against
plain hop counting ("unit") to show the reported E-model latencies are not
sensitive to that choice — the selection rule (Eq. 10) only compares estimates, and a uniform per-hop scale
factor preserves the comparison.
"""

from __future__ import annotations

import pytest

from repro.core.policies import EModelPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast
from repro.utils.format import format_table

from _bench_utils import emit, mean


def _run_weight_comparison(rate: int = 10, count: int = 3, num_nodes: int = 80):
    config = DeploymentConfig(num_nodes=num_nodes, source_min_ecc=4, source_max_ecc=None)
    rows = []
    expected_latencies = []
    unit_latencies = []
    for index in range(count):
        topology, source = deploy_uniform(config=config, seed=200 + index)
        schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=300 + index)
        expected = run_broadcast(
            topology,
            source,
            EModelPolicy(weight="expected"),
            schedule=schedule,
            align_start=True,
            validate=False,
        ).latency
        unit = run_broadcast(
            topology,
            source,
            EModelPolicy(weight="unit"),
            schedule=schedule,
            align_start=True,
            validate=False,
        ).latency
        expected_latencies.append(expected)
        unit_latencies.append(unit)
        rows.append([index, expected, unit])
    return rows, expected_latencies, unit_latencies


@pytest.mark.ablation
def test_ablation_emodel_weights(benchmark, bench_rounds):
    rows, expected, unit = benchmark.pedantic(_run_weight_comparison, **bench_rounds)
    emit(
        "Ablation A2: asynchronous E-model weight choice (r = 10)",
        format_table(["deployment", "expected-CWT weight", "unit weight"], rows),
    )
    # A uniform per-hop scale factor cannot change which colour holds the
    # maximum estimate, so the two weightings produce identical schedules.
    assert expected == unit
    assert mean(expected) > 0
