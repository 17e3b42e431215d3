"""Seeded stdlib-``random`` fuzzing across every engine backend.

Hypothesis drives the structured parity suites; this file adds a second,
independent randomness source — the standard library's ``random`` module
with explicit seeds — so backend conformance is not hostage to one
generator's corpus shape.  Each fuzz case draws a random connected UDG
deployment, a random duty cycle, a random frontier policy and a random
loss probability, then asserts the two invariants every backend must
never break:

1. **Cross-backend trace equality** — every registered backend returns a
   trace equal to the reference engines'.
2. **Validator cleanliness** — the trace passes
   :func:`~repro.sim.validation.validate_broadcast` (against the delivered
   receivers when lossy).

All draws derive from the test's seed parameter, so a failing case replays
from its pytest id alone.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.broadcast import ENGINE_BACKENDS, run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.validation import validate_broadcast

_POLICIES = (
    ("e-model", EModelPolicy),
    ("g-opt", GreedyOptPolicy),
    ("largest-first", LargestFirstPolicy),
)


def _fuzz_topology(rng: random.Random) -> WSNTopology:
    """A random connected UDG on a small area, by rejection sampling."""
    while True:
        count = rng.randint(8, 22)
        side = 7.0
        positions = set()
        while len(positions) < count:
            positions.add(
                (round(rng.uniform(0.0, side), 2), round(rng.uniform(0.0, side), 2))
            )
        radius = rng.choice([3.0, 4.0, 5.0])
        topology = WSNTopology.from_positions(sorted(positions), radius=radius)
        if topology.is_connected():
            return topology


def _fuzz_case(seed: int):
    """Derive one complete fuzz scenario from a single stdlib-random seed."""
    rng = random.Random(seed)
    topology = _fuzz_topology(rng)
    source = rng.choice(sorted(topology.node_ids))
    duty = rng.random() < 0.6
    schedule = None
    if duty:
        schedule = WakeupSchedule(
            topology.node_ids, rate=rng.randint(1, 6), seed=rng.randrange(2**20)
        )
    name, factory = _POLICIES[rng.randrange(len(_POLICIES))]
    loss = rng.choice([0.0, 0.0, 0.15, 0.3])
    link = None if loss == 0.0 else IndependentLossLinks(loss, seed=rng.randrange(2**20))
    return topology, source, schedule, factory, link


@pytest.mark.slow_property
@pytest.mark.parametrize("seed", range(24))
def test_fuzzed_backends_agree_and_validate(seed):
    topology, source, schedule, factory, link = _fuzz_case(seed)
    kwargs = dict(
        schedule=schedule,
        align_start=schedule is not None,
        link_model=link,
    )
    traces = {
        engine: run_broadcast(topology, source, factory(), engine=engine, **kwargs)
        for engine in sorted(ENGINE_BACKENDS)
    }
    reference = traces["reference"]
    for engine, trace in traces.items():
        assert trace == reference, f"backend {engine!r} diverged on fuzz seed {seed}"
    lossy = link is not None
    for backend in ("reference", "vectorized"):
        assert (
            validate_broadcast(
                topology, reference, schedule=schedule, backend=backend, lossy=lossy
            )
            == []
        ), f"fuzz seed {seed}: trace failed validation under {backend!r}"

