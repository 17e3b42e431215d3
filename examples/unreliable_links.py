#!/usr/bin/env python
"""Robustness scenario: broadcasting over lossy links, with energy accounting.

Section VI of the paper criticises schedulers that rely on "healthy,
interference-free links": once deliveries fail, they need retransmissions
and can even live-lock.  The conflict-aware frontier schedulers reproduced
here degrade gracefully instead — a node that misses a transmission simply
stays in the uncovered set and is served by a later advance.  This example

* sweeps the per-link loss probability and reports how the end-to-end
  latency inflates for the centralised E-model and the localized contention
  scheduler (the paper's §VII future-work direction);
* attaches the first-order radio energy model to the traces so the latency /
  energy trade-off of retransmissions is visible.

Losses run through the composable simulation core
(``run_broadcast(..., link_model=IndependentLossLinks(p, seed=s))``), so
``--engine vectorized`` runs the same sweep on the int-mask backend (one
block draw per advance) with bit-identical results.

Run it with::

    python examples/unreliable_links.py [--nodes 100] [--max-loss 0.4] \
        [--engine vectorized]
"""

from __future__ import annotations

import argparse

from repro import EModelPolicy, LocalizedEModelPolicy, deploy_uniform
from repro.sim.broadcast import ENGINE_BACKENDS, run_broadcast
from repro.sim.energy import EnergyModel, energy_of_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.render import render_schedule_timeline, render_topology_ascii
from repro.utils.format import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--max-loss", type=float, default=0.4)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument(
        "--engine", choices=sorted(ENGINE_BACKENDS), default="reference"
    )
    args = parser.parse_args()

    topology, source = deploy_uniform(num_nodes=args.nodes, seed=args.seed)
    print(render_topology_ascii(topology, width=56, height=18, highlight=source))
    print()

    energy_model = EnergyModel()
    probabilities = [
        round(args.max_loss * step / (args.steps - 1), 3) for step in range(args.steps)
    ]
    rows = []
    sample_trace = None
    for policy_name, policy_factory in (
        ("E-model", EModelPolicy),
        ("localized-E", LocalizedEModelPolicy),
    ):
        for probability in probabilities:
            result = run_broadcast(
                topology,
                source,
                policy_factory(),
                engine=args.engine,
                link_model=IndependentLossLinks(
                    probability, seed=args.seed + int(probability * 1000)
                ),
            )
            report = energy_of_broadcast(topology, result, energy_model)
            rows.append(
                [
                    policy_name,
                    f"{probability:.2f}",
                    result.latency,
                    result.total_transmissions,
                    result.retransmissions,
                    f"{report.total:.0f}",
                    f"{report.hottest_node()[1]:.0f}",
                ]
            )
            if policy_name == "E-model" and probability == probabilities[-1]:
                sample_trace = result

    print(
        format_table(
            [
                "scheduler",
                "loss prob",
                "P(A) [rounds]",
                "transmissions",
                "retransmissions",
                "energy [units]",
                "hottest node",
            ],
            rows,
        )
    )

    if sample_trace is not None:
        print("\nSample schedule at the highest loss rate (retransmissions visible):")
        print(render_schedule_timeline(sample_trace, max_entries=15))


if __name__ == "__main__":
    main()
