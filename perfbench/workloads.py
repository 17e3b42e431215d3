"""The benchmark's workloads and metric names, as plain data.

Every workload uses the paper's Section V-A geometry: a 50 x 50 area,
radius 10, source eccentricity 5-8, the uniform deployment scenario and
reliable links.  They differ in the system model, the scheduler line-up and
whether the sweep writes through a persistent store, so that each one puts a
different layer of the program on the critical path (see README.md).

This module imports nothing from ``repro``: the parent process of a run only
needs the names and sizes, and the program itself is loaded by the sample
processes (``sample.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Workload",
    "WORKLOADS",
    "PAPER_NODE_COUNTS",
    "END_TO_END",
    "TIME_LAYERS",
    "COUNTS",
    "PER_LAYER",
]

PAPER_NODE_COUNTS = (50, 100, 150, 200, 250, 300)

#: End-to-end metrics of an untraced run, with their units.  Latencies are
#: in slots; a round of the synchronous system is one slot.
END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency.E-model": "slots",
    "latency.baseline": "slots",
}

#: Seconds the traced mirror spends in each layer, summed over a sweep.
#: Layers are the program's modules; the scheduler follows a final dot
#: where a module holds several, and the 17- and 26-approximations share
#: the ``approx`` suffix.
TIME_LAYERS = (
    "network.deploy_s",
    "network.eccentricity_s",
    "dutycycle.schedule_s",
    "core.prepare_s.OPT",
    "core.prepare_s.G-OPT",
    "core.prepare_s.E-model",
    "baselines.prepare_s.approx",
    "core.decide_s.OPT",
    "core.decide_s.G-OPT",
    "core.decide_s.E-model",
    "baselines.decide_s.approx",
    "sim.engine_s",
    "sim.validate_s",
    "sim.energy_s",
    "store.get_s",
    "store.put_s",
)

#: Deterministic work counts of the traced mirror, summed over a sweep.
COUNTS = (
    "core.decisions.OPT",
    "core.decisions.G-OPT",
    "core.decisions.E-model",
    "baselines.decisions.approx",
    "core.search_states.OPT",
    "core.search_states.G-OPT",
    "core.search_expansions.OPT",
    "core.search_expansions.G-OPT",
    "core.memo_hits.OPT",
    "core.memo_hits.G-OPT",
    "sim.advances",
    "sim.slots",
    "store.puts",
)

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    **{name: "s" for name in TIME_LAYERS},
    "experiments.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    **{name: "count" for name in COUNTS},
}


@dataclass(frozen=True)
class Workload:
    """One sweep of the benchmark.

    ``line_up`` names the schedulers in line-up order; it is either the
    paper's full line-up for the system (the sweep then runs with the
    default policies) or a subset of it.  ``baseline`` is the
    approximation algorithm of the line-up.
    """

    name: str
    system: str
    rate: int
    node_counts: tuple[int, ...]
    repetitions: int
    line_up: tuple[str, ...]
    baseline: str
    store: bool = False

    @property
    def broadcasts(self) -> int:
        """Broadcasts (records) one sweep of this workload produces."""
        return len(self.node_counts) * self.repetitions * len(self.line_up)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Round-based paper line-up over the whole 50-300 grid: the
        # synchronous time-counter beam search dominates.
        Workload(
            name="paper-sync",
            system="sync",
            rate=1,
            node_counts=PAPER_NODE_COUNTS,
            repetitions=1,
            line_up=("26-approx", "OPT", "G-OPT", "E-model"),
            baseline="26-approx",
        ),
        # Duty-cycle r=50 paper line-up: the duty search (horizon and
        # wake-up frontier scans) dominates.  The 250- and 300-node cells
        # cost 6-9 s per deployment, so a sample covering them would leave
        # one or two samples per run and the spread across seeds would
        # exceed any allowed bound; the grid stops at 200 nodes.
        Workload(
            name="paper-duty50",
            system="duty",
            rate=50,
            node_counts=(50, 100, 150, 200),
            repetitions=1,
            line_up=("17-approx", "OPT", "G-OPT", "E-model"),
            baseline="17-approx",
        ),
        # Duty-cycle r=10 with no time counter, through a fresh store: the
        # bypass for every search optimisation, where deployment, E-model
        # preparation, the engine and store writes carry the time.
        Workload(
            name="emodel-store",
            system="duty",
            rate=10,
            node_counts=PAPER_NODE_COUNTS,
            repetitions=5,
            line_up=("17-approx", "E-model"),
            baseline="17-approx",
            store=True,
        ),
    )
}
