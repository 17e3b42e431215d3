"""The traced mirror of ``run_sweep``: the same sweep, timed layer by layer.

``traced_sweep`` rebuilds every cell of a sweep from the layers' public
functions, in the order the runner calls them, and times each call from
outside: no file of the program is touched.  The records it returns must
hash to the same digest as the untraced ``run_sweep`` call on the same
grid, which the benchmark asserts on every sample, so the per-layer split
always describes the program that was timed end to end.  The layer names
are listed in ``workloads.py``.
"""

from __future__ import annotations

from time import perf_counter

from repro.dutycycle.models import build_wakeup_schedule
from repro.experiments.runner import RunRecord
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import ENGINE_BACKENDS
from repro.sim.energy import energy_of_broadcast
from repro.sim.links import build_link_model
from repro.sim.validation import assert_valid
from repro.store import cell_key_for
from repro.utils.rng import derive_seed

from workloads import COUNTS, TIME_LAYERS

__all__ = ["TimedPolicy", "traced_sweep"]

_LAYER_OF_POLICY = {
    "OPT": ("core", "OPT"),
    "G-OPT": ("core", "G-OPT"),
    "E-model": ("core", "E-model"),
    "17-approx": ("baselines", "approx"),
    "26-approx": ("baselines", "approx"),
}


class TimedPolicy:
    """Delegates to a scheduler and times its ``select_advance`` calls.

    The engines read the policy's flags (``frontier_driven``,
    ``interference_free``) and its ``next_decision_slot`` hint; attribute
    access falls through to the wrapped policy, so the engine runs the same
    loop it runs for the bare scheduler.
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self.decide_s = 0.0
        self.decisions = 0

    def __getattr__(self, name: str):
        return getattr(self._policy, name)

    def select_advance(self, state):
        start = perf_counter()
        advance = self._policy.select_advance(state)
        self.decide_s += perf_counter() - start
        self.decisions += 1
        return advance


def traced_sweep(workload, config, line_up, store=None):
    """Run ``config``'s grid like ``run_sweep(engine="vectorized")`` would.

    Returns ``(records, layers, counts, total_s)``: the records in sweep
    order, seconds per layer (plus ``experiments.unattributed_s``, the
    total minus every timed layer), work counts, and the wall time of the
    whole sweep.
    """
    layers = dict.fromkeys(TIME_LAYERS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)

    def timed(layer, call, *args, **kwargs):
        start = perf_counter()
        value = call(*args, **kwargs)
        layers[layer] += perf_counter() - start
        return value

    start = perf_counter()
    duty = workload.system == "duty"
    rate = workload.rate if duty else 1
    round_engine_cls, slot_engine_cls = ENGINE_BACKENDS["vectorized"]
    cells = [
        (num_nodes, repetition)
        for num_nodes in config.node_counts
        for repetition in range(config.repetitions)
    ]
    keys = []
    if store is not None:
        keys = [
            cell_key_for(
                config,
                system=workload.system,
                rate=rate,
                num_nodes=num_nodes,
                repetition=repetition,
                policies=tuple(line_up),
            )
            for num_nodes, repetition in cells
        ]
        for key in keys:
            if timed("store.get_s", store.get, key) is not None:
                raise RuntimeError("a fresh store served a cached cell")

    records: list[RunRecord] = []
    for index, (num_nodes, repetition) in enumerate(cells):
        seed = derive_seed(config.seed, workload.system, rate, num_nodes, repetition)
        topology, source = timed(
            "network.deploy_s",
            deploy_uniform,
            config=DeploymentConfig(
                num_nodes=num_nodes,
                area_side=config.area_side,
                radius=config.radius,
                source_min_ecc=config.source_min_ecc,
                source_max_ecc=config.source_max_ecc,
            ),
            seed=seed,
        )
        schedule = None
        if duty:
            schedule = timed(
                "dutycycle.schedule_s",
                build_wakeup_schedule,
                topology.node_ids,
                rate=rate,
                seed=derive_seed(seed, "wakeup-schedule"),
                model=config.duty_model,
                model_seed=derive_seed(seed, "duty-model"),
            )
        link_model = build_link_model(
            config.link_model,
            loss_probability=config.loss_probability,
            seed=derive_seed(seed, "link-loss"),
        )
        eccentricity = timed("network.eccentricity_s", topology.eccentricity, source)
        cell_records = []
        for name, factory in line_up.items():
            module, suffix = _LAYER_OF_POLICY[name]
            policy = factory()
            timed(f"{module}.prepare_s.{suffix}", policy.prepare, topology, schedule, source)
            probe = TimedPolicy(policy)
            engine_start = perf_counter()
            if duty:
                engine = slot_engine_cls(topology, schedule, link_model=link_model)
                trace = engine.run(probe, source, align_start=True)
            else:
                engine = round_engine_cls(topology, link_model=link_model)
                trace = engine.run(probe, source)
            layers["sim.engine_s"] += perf_counter() - engine_start - probe.decide_s
            layers[f"{module}.decide_s.{suffix}"] += probe.decide_s
            counts[f"{module}.decisions.{suffix}"] += probe.decisions
            counts["sim.advances"] += trace.num_advances
            counts["sim.slots"] += trace.latency
            counter = getattr(policy, "counter", None)
            if counter is not None:
                counts[f"core.search_states.{name}"] += counter.stats.states
                counts[f"core.search_expansions.{name}"] += counter.stats.expansions
                counts[f"core.memo_hits.{name}"] += counter.stats.memo_hits
            timed(
                "sim.validate_s",
                assert_valid,
                topology,
                trace,
                schedule=schedule,
                backend="vectorized",
                lossy=not link_model.lossless,
            )
            energy = timed("sim.energy_s", energy_of_broadcast, topology, trace)
            cell_records.append(
                RunRecord(
                    policy=name,
                    system=workload.system,
                    rate=rate,
                    scenario=config.scenario,
                    duty_model=config.duty_model if duty else "uniform",
                    link_model=config.link_model,
                    loss_probability=config.loss_probability,
                    num_nodes=num_nodes,
                    density=num_nodes / (config.area_side * config.area_side),
                    repetition=repetition,
                    seed=seed,
                    source=source,
                    eccentricity=eccentricity,
                    latency=trace.latency,
                    end_time=trace.end_time,
                    num_advances=trace.num_advances,
                    total_transmissions=trace.total_transmissions,
                    retransmissions=trace.retransmissions,
                    n_sources=config.n_sources,
                    source_placement=config.source_placement,
                    mean_message_latency=trace.latency / 1,
                    max_message_latency=trace.latency,
                    tx_energy=energy.transmission_energy,
                    rx_energy=energy.reception_energy,
                    idle_energy=energy.idle_energy,
                    total_energy=energy.total,
                )
            )
        if store is not None:
            timed("store.put_s", store.put, keys[index], cell_records)
            counts["store.puts"] += 1
        records.extend(cell_records)
    total_s = perf_counter() - start
    layers["experiments.unattributed_s"] = total_s - sum(layers.values())
    return records, layers, counts, total_s
