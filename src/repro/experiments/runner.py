"""Sweep runner: deploy, broadcast under every scheduler, collect records.

One *sweep* fixes the system model (round-based or duty-cycle with a given
cycle rate), the deployment scenario and the duty-cycle assignment model,
and runs every scheduler on the same sequence of deployments so the
comparison is paired, exactly like the paper's simulator: for each node
count and repetition a deployment is generated, the source is selected, and
each policy broadcasts from the same source over the same topology (and, in
the duty-cycle system, the same wake-up schedule).

Determinism contract
--------------------
The grid is embarrassingly parallel across ``(node count, repetition)``
cells, and the records are **bit-identical for every worker count**.  The
contract has three legs:

1. *Per-cell seed derivation.*  Every cell derives its own seed with
   :func:`repro.utils.rng.derive_seed` from the experiment seed and the
   cell coordinates ``(system, rate, num_nodes, repetition)`` — never from
   shared mutable RNG state — so a cell's randomness is independent of
   which process runs it, in which order.
2. *Pure generators.*  Deployment scenarios (:mod:`repro.scenarios`) and
   duty-model rate assignments (:mod:`repro.dutycycle.models`) are pure
   functions of ``(name, config, seed)``; the cell seed is further split
   (``"wakeup-schedule"``, ``"duty-model"``, ``"link-loss"``,
   ``"multi-source"``) so the axes stay independent.  The ``"link-loss"``
   stream in particular seeds the lossy link model once per cell, and the
   link model re-derives its RNG per broadcast, so every policy of a cell
   faces the same delivery pattern regardless of execution order, worker
   count or engine; the ``"multi-source"`` stream likewise fixes the extra
   source placement per cell.
3. *Deterministic reassembly.*  ``run_sweep`` has one dispatch loop for
   both execution modes: in-process (``map``) and the process pool
   (``pool.imap``, not ``imap_unordered``) are interchangeable iterators
   that yield the pending cells' records in serial cell order, and the
   runner alone writes each cell back to the store and reports it.  The
   fabric (:mod:`repro.fabric`) runs the same cells through the same
   :func:`_run_cell` on remote workers and commits them under the same
   store keys.

``run_sweep(..., workers=N)`` fans the cells out over a process pool
(``workers=0`` means one per CPU); ``engine="vectorized"`` switches every
broadcast (and its validation) to the int-mask backend, which is
trace-identical to the reference engine — including over lossy links.
Any combination of ``(scenario, duty_model, link_model, engine, workers)``
therefore changes *what* is simulated or *how fast*, never the records'
reproducibility.

The determinism contract is also what makes cells *cacheable by content*:
``run_sweep(..., store=ExperimentStore(path))`` consults the persistent
store (:mod:`repro.store`) before dispatching — cached cells load from
disk, missing cells are simulated and written back as each finishes, and
the records are re-assembled in the serial cell order either way, so a
warm (or partially warm) store returns records bit-identical to a cold
run for any worker count and engine.  Interrupted sweeps resume from the
cells already persisted; grid extensions (more repetitions, new node
counts, a new loss point) only pay for the delta.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Mapping, Sequence

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy, SchedulingPolicy
from repro.dutycycle.models import build_wakeup_schedule
from repro.experiments.config import SweepConfig
from repro.network.deployment import DeploymentConfig
from repro.network.sources import select_sources
from repro.obs.bus import EVENT_BUS
from repro.scenarios import generate_scenario
from repro.sim.broadcast import run_broadcast
from repro.sim.energy import energy_of_broadcast
from repro.sim.links import build_link_model
from repro.solvers.registry import SOLVER_TIERS
from repro.store import ExperimentStore, cell_key_for
from repro.utils.rng import derive_seed

__all__ = [
    "RunRecord",
    "SweepResult",
    "run_sweep",
    "default_policies",
    "SweepCell",
    "sweep_cells",
]

PolicyFactory = Callable[[], SchedulingPolicy]


@dataclass(frozen=True)
class RunRecord:
    """One broadcast of one policy on one deployment.

    ``latency`` is the paper's ``P(A)`` for a single-source broadcast and
    the *makespan* (completion of the slowest message) for a multi-source
    one; ``mean_message_latency`` aggregates the per-message latencies
    (equal to ``latency`` when ``n_sources == 1``).  The four energy
    columns come from :func:`repro.sim.energy.energy_of_broadcast` under
    the default :class:`~repro.sim.energy.EnergyModel` and are present on
    *every* record.
    """

    policy: str
    system: str
    rate: int
    scenario: str
    duty_model: str
    link_model: str
    loss_probability: float
    num_nodes: int
    density: float
    repetition: int
    seed: int
    source: int
    eccentricity: int
    latency: int
    end_time: int
    num_advances: int
    total_transmissions: int
    retransmissions: int
    n_sources: int = 1
    source_placement: str = "random"
    mean_message_latency: float = 0.0
    max_message_latency: int = 0
    tx_energy: float = 0.0
    rx_energy: float = 0.0
    idle_energy: float = 0.0
    total_energy: float = 0.0


@dataclass
class SweepResult:
    """All records of a sweep plus convenience accessors for figure series.

    ``cache_hits`` / ``cache_misses`` count the grid cells served from (or
    written back to) a persistent store when ``run_sweep`` ran with one;
    both stay ``0`` for store-less sweeps.
    """

    system: str
    rate: int
    config: SweepConfig
    records: list[RunRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def policies(self) -> list[str]:
        """Policy names present, in first-appearance order."""
        seen: list[str] = []
        for record in self.records:
            if record.policy not in seen:
                seen.append(record.policy)
        return seen

    def records_for(self, policy: str, num_nodes: int | None = None) -> list[RunRecord]:
        """Records of one policy (optionally restricted to a node count)."""
        return [
            r
            for r in self.records
            if r.policy == policy and (num_nodes is None or r.num_nodes == num_nodes)
        ]

    def mean_latency(self, policy: str, num_nodes: int) -> float:
        """Mean latency of ``policy`` over the repetitions at ``num_nodes``."""
        from repro.sim.metrics import aggregate_latency

        values = [r.latency for r in self.records_for(policy, num_nodes)]
        return aggregate_latency(values)["mean"]

    def latency_series(self, policies: Sequence[str] | None = None) -> dict[str, list[float]]:
        """Mean latency per node count for each policy (figure series)."""
        chosen = list(policies) if policies is not None else self.policies
        return {
            policy: [self.mean_latency(policy, n) for n in self.config.node_counts]
            for policy in chosen
        }

    def eccentricity_series(self) -> list[float]:
        """Mean source eccentricity ``d`` per node count (for bound curves)."""
        series: list[float] = []
        for n in self.config.node_counts:
            values = {
                (r.repetition): r.eccentricity
                for r in self.records
                if r.num_nodes == n
            }
            series.append(sum(values.values()) / max(len(values), 1))
        return series

    def to_rows(self) -> list[list[object]]:
        """Flat rows (one per record) for CSV export."""
        return [
            [
                r.policy,
                r.system,
                r.rate,
                r.scenario,
                r.duty_model,
                r.link_model,
                f"{r.loss_probability:.3f}",
                r.num_nodes,
                f"{r.density:.4f}",
                r.repetition,
                r.seed,
                r.source,
                r.eccentricity,
                r.latency,
                r.end_time,
                r.num_advances,
                r.total_transmissions,
                r.retransmissions,
                r.n_sources,
                r.source_placement,
                f"{r.mean_message_latency:.2f}",
                r.max_message_latency,
                f"{r.tx_energy:.1f}",
                f"{r.rx_energy:.1f}",
                f"{r.idle_energy:.1f}",
                f"{r.total_energy:.1f}",
            ]
            for r in self.records
        ]

    #: CSV column names of :meth:`to_rows`: the record's fields, in order.
    ROW_HEADERS = tuple(f.name for f in fields(RunRecord))


def _factory_loss_tolerant(factory: PolicyFactory) -> bool:
    """Whether a policy factory produces loss-tolerant policies.

    Inspects the class attribute through ``functools.partial`` wrappers so
    the default line-up can be filtered without instantiating anything.
    """
    target = factory.func if isinstance(factory, functools.partial) else factory
    return getattr(target, "loss_tolerant", True)


def default_policies(
    config: SweepConfig, system: str
) -> dict[str, PolicyFactory]:
    """The paper's scheduler line-up for the given system model.

    Round-based: 26-approximation, OPT, G-OPT, E-model (Figure 3).
    Duty-cycle: 17-approximation, OPT, G-OPT, E-model (Figures 4 and 6).

    On a lossy link model the planned baselines drop out: they replay a
    fixed schedule that assumes reliable delivery and live-lock once
    deliveries fail (the §VI critique), so the lossy line-up is the
    frontier schedulers that degrade gracefully.  The multi-source workload
    (``config.n_sources > 1``) drops them for the same structural reason:
    slot contention defers advances, which only frontier re-planners
    tolerate.

    ``config.solver`` selects an extra tier from
    :data:`repro.solvers.SOLVER_TIERS` and prepends it to the line-up under
    its tier name (strongest guarantee first, matching the catalog order).
    The default ``"heuristic"`` tier *is* the E-model already present in
    every line-up, so default sweeps — and their store cell keys — are
    unchanged; a tier that only schedules for the other system model (the
    26-approximation on duty, the 17-approximation on sync) is rejected
    loudly rather than silently dropped.

    The factories are :func:`functools.partial` objects over importable
    classes, so the mapping pickles cleanly into worker processes.
    """
    if system == "sync":
        line_up: dict[str, PolicyFactory] = {
            "26-approx": Approx26Policy,
            "OPT": functools.partial(
                OptPolicy, search=config.search, max_color_classes=config.max_color_classes
            ),
            "G-OPT": functools.partial(GreedyOptPolicy, search=config.search),
            "E-model": EModelPolicy,
        }
    elif system == "duty":
        line_up = {
            "17-approx": Approx17Policy,
            "OPT": functools.partial(
                OptPolicy, search=config.search, max_color_classes=config.max_color_classes
            ),
            "G-OPT": functools.partial(GreedyOptPolicy, search=config.search),
            "E-model": EModelPolicy,
        }
    else:
        raise ValueError(f"unknown system {system!r}; expected 'sync' or 'duty'")
    tier = SOLVER_TIERS[config.solver]
    if system not in tier.systems:
        raise ValueError(
            f"solver tier {tier.name!r} only schedules for "
            f"{' and '.join(tier.systems)} sweeps, not {system!r}; pick a "
            "tier supporting this system model (--list-solvers)"
        )
    # The heuristic tier is the E-model already in every line-up; the
    # 17/26-approximations are likewise present on their native system.
    # Only a genuinely new tier (the exact solvers) extends the line-up.
    if tier.name != "heuristic" and tier.name not in line_up:
        line_up = {tier.name: tier.factory, **line_up}
    if config.link_model != "reliable" or config.n_sources > 1:
        line_up = {
            name: factory
            for name, factory in line_up.items()
            if _factory_loss_tolerant(factory)
        }
    return line_up


@dataclass(frozen=True)
class SweepCell:
    """One independently executable cell of the sweep grid.

    A cell is a single ``(node count, repetition)`` pair together with
    everything a worker needs to reproduce it from scratch: the sweep
    configuration (for geometry and seeds), the system model, and the policy
    line-up (``None`` selects :func:`default_policies` inside the worker, so
    the default grid never pickles factories at all).
    """

    config: SweepConfig
    system: str
    rate: int
    num_nodes: int
    repetition: int
    engine: str
    policies: tuple[tuple[str, PolicyFactory], ...] | None = None


@dataclass(frozen=True)
class _CellSetup:
    """Everything a cell's broadcasts share, reproduced from its seed.

    The deterministic half of a cell's work (deployment, wake-up schedule,
    link model, source placement): a pure function of the cell, shared by
    every policy of the line-up.
    """

    policies: tuple[tuple[str, PolicyFactory], ...]
    seed: int
    topology: object
    source: int
    sources: tuple[int, ...]
    schedule: object
    link_model: object
    eccentricity: int


def _prepare_cell(cell: SweepCell) -> _CellSetup:
    """Reproduce one cell's deployment, schedule, link model and sources."""
    config = cell.config
    if cell.policies is None:
        policies: Mapping[str, PolicyFactory] = default_policies(config, cell.system)
    else:
        policies = dict(cell.policies)
    seed = derive_seed(
        config.seed, cell.system, cell.rate, cell.num_nodes, cell.repetition
    )
    deployment_config = DeploymentConfig(
        num_nodes=cell.num_nodes,
        area_side=config.area_side,
        radius=config.radius,
        source_min_ecc=config.source_min_ecc,
        source_max_ecc=config.source_max_ecc,
    )
    deployment = generate_scenario(config.scenario, deployment_config, seed=seed)
    topology, source = deployment.topology, deployment.source
    schedule = None
    if cell.system == "duty":
        schedule = build_wakeup_schedule(
            topology.node_ids,
            rate=cell.rate,
            seed=derive_seed(seed, "wakeup-schedule"),
            model=config.duty_model,
            model_seed=derive_seed(seed, "duty-model"),
        )
    # The loss stream is split off the cell seed once; the link model
    # re-derives its RNG per broadcast, so every policy of the cell is
    # paired against the same delivery pattern.
    link_model = build_link_model(
        config.link_model,
        loss_probability=config.loss_probability,
        seed=derive_seed(seed, "link-loss"),
    )
    eccentricity = topology.eccentricity(source)
    # The multi-source axis: k - 1 extra sources placed around the vetted
    # deployment source by the configured strategy, seeded per cell (the
    # "multi-source" split) so records stay bit-identical for any worker
    # count and engine.
    n_sources = config.n_sources
    sources = (source,)
    if n_sources > 1:
        sources = select_sources(
            topology,
            n_sources,
            placement=config.source_placement,
            seed=derive_seed(seed, "multi-source"),
            area_side=config.area_side,
            anchor=source,
        )
    return _CellSetup(
        policies=tuple(policies.items()),
        seed=seed,
        topology=topology,
        source=source,
        sources=tuple(sources),
        schedule=schedule,
        link_model=link_model,
        eccentricity=eccentricity,
    )


def _cell_record(
    cell: SweepCell,
    setup: _CellSetup,
    name: str,
    trace,
) -> RunRecord:
    """Build the :class:`RunRecord` of one (cell, policy) broadcast."""
    config = cell.config
    energy = energy_of_broadcast(setup.topology, trace)
    message_latencies = trace.per_message_latency
    return RunRecord(
        policy=name,
        system=cell.system,
        rate=cell.rate if cell.system == "duty" else 1,
        scenario=config.scenario,
        duty_model=config.duty_model if cell.system == "duty" else "uniform",
        link_model=config.link_model,
        loss_probability=config.loss_probability,
        num_nodes=cell.num_nodes,
        density=cell.num_nodes / (config.area_side * config.area_side),
        repetition=cell.repetition,
        seed=setup.seed,
        source=setup.source,
        eccentricity=setup.eccentricity,
        latency=trace.latency,
        end_time=trace.end_time,
        num_advances=trace.num_advances,
        total_transmissions=trace.total_transmissions,
        retransmissions=trace.retransmissions,
        n_sources=config.n_sources,
        source_placement=config.source_placement,
        mean_message_latency=sum(message_latencies) / len(message_latencies),
        max_message_latency=max(message_latencies),
        tx_energy=energy.transmission_energy,
        rx_energy=energy.reception_energy,
        idle_energy=energy.idle_energy,
        total_energy=energy.total,
    )


def _run_cell(cell: SweepCell) -> list[RunRecord]:
    """Execute one sweep cell: the unit of work of every dispatch mode.

    ``run_sweep`` maps it over the pending cells in-process or on the
    process pool, and each fabric worker runs it on its leased cells.
    """
    if EVENT_BUS.active:
        from repro.obs.events import CellStarted

        EVENT_BUS.emit(
            CellStarted(cell.system, cell.rate, cell.num_nodes, cell.repetition)
        )
    setup = _prepare_cell(cell)
    records: list[RunRecord] = []
    for name, factory in setup.policies:
        trace = run_broadcast(
            setup.topology,
            list(setup.sources),
            [factory() for _ in setup.sources],
            schedule=setup.schedule,
            align_start=cell.system == "duty",
            engine=cell.engine,
            link_model=setup.link_model,
        )
        records.append(_cell_record(cell, setup, name, trace))
    return records


def sweep_cells(
    config: SweepConfig,
    *,
    system: str = "sync",
    rate: int = 10,
    engine: str | None = None,
    policies: Mapping[str, PolicyFactory] | None = None,
) -> list[SweepCell]:
    """The sweep's grid as independently executable cells, in serial order.

    The cells (and the order) ``run_sweep`` dispatches for the same
    arguments — the shared vocabulary between the runner, which runs its
    store-missing cells in-process or on the pool, and the fabric
    coordinator, which leases the grid's store-missing cells to its
    workers (:mod:`repro.fabric`).
    """
    if system not in ("sync", "duty"):
        raise ValueError(f"unknown system {system!r}; expected 'sync' or 'duty'")
    frozen_policies = None if policies is None else tuple(policies.items())
    return [
        SweepCell(
            config=config,
            system=system,
            rate=rate if system == "duty" else 1,
            num_nodes=num_nodes,
            repetition=repetition,
            engine=config.engine if engine is None else engine,
            policies=frozen_policies,
        )
        for num_nodes in config.node_counts
        for repetition in range(config.repetitions)
    ]


def _pool_map(pending: list[SweepCell], workers: int) -> Iterator[list[RunRecord]]:
    """Run ``pending`` on a process pool, yielding records in serial order.

    "fork" on Linux (cheap start-up, no ``__main__`` re-import, so it also
    works from interactive sessions); "spawn" everywhere else — macOS
    offers fork but it is unsafe there with Accelerate/objc state, which is
    why CPython made spawn the macOS default.  The cells are self-contained
    either way: the only pickled state is the cell itself.
    """
    import multiprocessing

    use_fork = (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    context = multiprocessing.get_context("fork" if use_fork else "spawn")
    with context.Pool(processes=min(workers, len(pending))) as pool:
        yield from pool.imap(_run_cell, pending, chunksize=1)


def run_sweep(
    config: SweepConfig,
    *,
    system: str = "sync",
    rate: int = 10,
    policies: Mapping[str, PolicyFactory] | None = None,
    workers: int | None = None,
    engine: str | None = None,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> SweepResult:
    """Run the full sweep and return the collected records.

    Parameters
    ----------
    config:
        Sweep parameterisation (node counts, repetitions, area, radius,
        deployment ``scenario``, ``duty_model``, ...).
    system:
        ``"sync"`` for the round-based system, ``"duty"`` for the duty-cycle
        system (which also generates a wake-up schedule per deployment).
    rate:
        Cycle rate ``r`` for the duty-cycle system (ignored for ``"sync"``).
    policies:
        Mapping ``name -> factory``; defaults to the paper's line-up.  With
        ``workers > 1`` the factories must be picklable (classes,
        ``functools.partial`` over classes, or module-level functions).
    workers:
        Worker processes; defaults to ``config.workers``.  ``1`` executes
        in-process, ``0`` uses one worker per CPU.  The result is
        bit-identical for every worker count: each grid cell derives its
        own RNG stream from the experiment seed and its coordinates.
    engine:
        Simulation backend override (defaults to ``config.engine``).
        Records are bit-identical for every backend.
    store:
        Persistent :class:`~repro.store.ExperimentStore`.  Every simulated
        cell is written back as it finishes (so an interrupted sweep keeps
        its progress), and — with ``resume`` — cached cells are loaded
        instead of re-simulated.  The cache key deliberately excludes
        ``engine`` and ``workers`` (records are bit-identical across them)
        and the grid shape, so extended grids reuse every overlapping cell.
    resume:
        Consult the store before dispatching (default).  ``False`` forces a
        full re-simulation that overwrites the cached cells.
    """
    effective_workers = config.workers if workers is None else workers
    if effective_workers == 0:
        effective_workers = os.cpu_count() or 1
    effective_engine = config.engine if engine is None else engine
    effective_rate = 1 if system == "sync" else rate
    cells = sweep_cells(
        config, system=system, rate=rate, engine=effective_engine, policies=policies
    )

    result = SweepResult(system=system, rate=effective_rate, config=config)

    # Partition the grid against the store: cached cells load immediately,
    # missing cells go to the dispatch list.  ``per_cell`` is keyed by the
    # serial cell index so the final reassembly is order-identical to a
    # store-less run regardless of which cells were cached.
    keys: list = []
    per_cell: dict[int, list[RunRecord]] = {}
    if store is not None:
        line_up = (
            policies if policies is not None else default_policies(config, system)
        )
        keys = [
            cell_key_for(
                config,
                system=cell.system,
                rate=cell.rate,
                num_nodes=cell.num_nodes,
                repetition=cell.repetition,
                policies=tuple(line_up),
            )
            for cell in cells
        ]
        if resume:
            for index, key in enumerate(keys):
                cached = store.get(key)
                if cached is not None:
                    per_cell[index] = cached
        result.cache_hits = len(per_cell)
        result.cache_misses = len(cells) - len(per_cell)

    def _finish(index: int, records: list[RunRecord]) -> None:
        per_cell[index] = records
        if store is not None:
            store.put(keys[index], records)
        if EVENT_BUS.active:
            from repro.obs.events import CellFinished

            cell = cells[index]
            EVENT_BUS.emit(
                CellFinished(
                    index, cell.num_nodes, cell.repetition, len(records)
                )
            )

    missing = [index for index in range(len(cells)) if index not in per_cell]

    if EVENT_BUS.active:
        from repro.obs.events import SweepStarted

        EVENT_BUS.emit(
            SweepStarted(
                system,
                effective_rate,
                effective_engine,
                len(cells),
                result.cache_hits if store is not None else -1,
                len(missing),
            )
        )
    # One dispatch loop for both modes: each source yields the pending
    # cells' records in serial order, and every cell goes through
    # ``_finish``.  Drain it to the end, so the pool's exit runs.
    pending = [cells[index] for index in missing]
    if effective_workers > 1 and len(pending) > 1:
        results = _pool_map(pending, effective_workers)
    else:
        results = map(_run_cell, pending)
    for position, records in enumerate(results):
        _finish(missing[position], records)

    for index in range(len(cells)):
        result.records.extend(per_cell[index])
    if EVENT_BUS.active:
        from repro.obs.events import SweepFinished

        EVENT_BUS.emit(
            SweepFinished(
                len(result.records), result.cache_hits, result.cache_misses
            )
        )
    return result
