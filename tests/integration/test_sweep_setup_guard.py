"""A paper sweep builds no frozenset neighbourhoods and no Node records.

The per-cell set-up layers (the BFS parent cover of the hop-distance
baselines, the E-model's quadrant index and the energy accounting) read
the topology's int masks and edge list.  ``WSNTopology._neighbour_sets``
and ``WSNTopology._node_map`` build their structures on first use; this
test spies on both and fails if any cell of a paper sweep makes them, so
a set-up layer cannot quietly fall back onto ``frozenset`` algebra.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies, run_sweep
from repro.network.topology import WSNTopology


@pytest.fixture
def builds(monkeypatch):
    """Names of the lazy structures built while the test runs."""
    built: list[str] = []
    for name, slot in (("_neighbour_sets", "_adjacency"), ("_node_map", "_nodes")):
        original = getattr(WSNTopology, name)

        def spy(self, _original=original, _name=name, _slot=slot):
            if getattr(self, _slot) is None:
                built.append(_name)
            return _original(self)

        monkeypatch.setattr(WSNTopology, name, spy)
    return built


@pytest.mark.parametrize("system, rate", [("sync", 1), ("duty", 10)])
def test_paper_sweep_builds_no_frozenset_structures(builds, system, rate):
    config = SweepConfig(
        node_counts=(50, 100), repetitions=1, seed=2012, engine="vectorized", workers=1
    )
    result = run_sweep(config, system=system, rate=rate, workers=1, engine="vectorized")
    line_up = tuple(default_policies(config, system))
    assert len(result.records) == 2 * len(line_up)
    assert {record.policy for record in result.records} == set(line_up)
    assert builds == []


def test_spy_sees_a_build(builds):
    """The spy itself works: a public set query builds the neighbourhoods."""
    topology = WSNTopology.from_positions([(0.0, 0.0), (1.0, 0.0)], radius=2.0)
    assert topology.neighbors(0) == frozenset({1})
    assert topology.position(1) == (1.0, 0.0)
    assert builds == ["_neighbour_sets", "_node_map"]
