"""Experiment configurations matching the paper's simulation setting.

Section V-A: 50-300 nodes with a 10-foot communication radius are deployed
uniformly over a 50 x 50 sq-ft area (densities 0.02-0.12 nodes/sq-ft); the
source is chosen with a hop distance of 5-8 to the farthest node; the
duty-cycle experiments use cycle rates ``r = 10`` and ``r = 50`` (a 2% duty
cycle).

Two scales are provided:

* :data:`PAPER_SWEEP` — the full parameterisation above (used when the
  environment variable ``REPRO_BENCH_SCALE=paper`` is set, or explicitly).
* :data:`QUICK_SWEEP` — a reduced sweep (three node counts, two repetitions,
  narrower beam) that keeps the benchmark suite's wall-clock time small
  while preserving every qualitative comparison; this is the default for
  ``pytest benchmarks/``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.core.time_counter import SearchConfig
from repro.dutycycle.models import duty_model_names
from repro.network.sources import placement_names
from repro.scenarios import scenario_names
from repro.sim.broadcast import ENGINE_BACKENDS
from repro.sim.links import link_model_names
from repro.solvers.registry import SOLVER_TIERS, solver_names
from repro.utils.validation import check_probability, require

__all__ = [
    "ExperimentScale",
    "SweepConfig",
    "PAPER_SWEEP",
    "QUICK_SWEEP",
    "RATIO_SWEEP",
    "sweep_from_env",
    "SCALE_ENV_VAR",
    "CELL_KEY_EXCLUDED_FIELDS",
]

#: Config fields that never enter a cell's content digest.  ``engine`` and
#: ``workers`` only change *how fast* a cell is simulated (the records are
#: bit-identical by the determinism contract), and the grid shape
#: (``node_counts``, ``repetitions``) is replaced by the cell's own
#: coordinates — so extending a grid with more node counts or repetitions
#: leaves every existing cell's digest (and cached records) intact.
CELL_KEY_EXCLUDED_FIELDS = frozenset(
    {"engine", "workers", "node_counts", "repetitions"}
)

#: Environment variable selecting the benchmark scale ("quick" or "paper").
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


class ExperimentScale(str, Enum):
    """Named experiment scales selectable via :data:`SCALE_ENV_VAR`."""

    QUICK = "quick"
    PAPER = "paper"


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one figure-style sweep.

    Attributes
    ----------
    node_counts:
        Numbers of deployed nodes (the x-axis of Figures 3-7 once divided by
        the area).
    area_side, radius:
        Deployment area side (ft) and communication radius (ft).
    repetitions:
        Independent deployments per node count; figures report the mean.
    seed:
        Base seed; every (node count, repetition) pair derives its own seed.
    source_min_ecc, source_max_ecc:
        Source eccentricity range (hops), per Section V-A.
    search:
        Search configuration of the time-counter policies (OPT / G-OPT).
    max_color_classes:
        Enumeration cap of the OPT policy's admissible colours.
    engine:
        Simulation backend from :data:`repro.sim.ENGINE_BACKENDS`:
        ``"reference"`` (frozenset/bigint oracle) or ``"vectorized"`` (int-mask
        fast path).  Both backends produce bit-identical traces.
    workers:
        Worker processes for the sweep runner; 1 runs in-process, 0 means
        "one per CPU".
    scenario:
        Named deployment generator from the :mod:`repro.scenarios` registry
        (``"uniform"`` is the paper's workload; ``--list-scenarios`` on the
        CLI prints the catalog).
    duty_model:
        Named per-node rate assignment from :mod:`repro.dutycycle.models`
        (``"uniform"`` is the paper's single global rate).  Only affects
        ``system="duty"`` sweeps.
    link_model:
        Named delivery model from :data:`repro.sim.links.LINK_MODELS`
        (``"reliable"`` is the paper's model; ``"independent-loss"``
        enables the §VI robustness axis).  Orthogonal to every other axis:
        any combination of (scenario, duty_model, engine, workers,
        link_model) yields bit-identical records.
    loss_probability:
        Per-link delivery failure probability for ``"independent-loss"``
        (must stay 0.0 for ``"reliable"``).  Every cell derives its own
        loss-RNG seed by splitting the cell seed on ``"link-loss"``.
    n_sources:
        Number of concurrent broadcast messages per cell (the multi-source
        workload).  ``1`` is the paper's single-source broadcast and keeps
        every record bit-identical to pre-multi-source sweeps; ``k > 1``
        runs ``k`` contending wavefronts and drops the planned baselines
        (they cannot re-plan around slot contention).
    source_placement:
        Named strategy from :data:`repro.network.sources.SOURCE_PLACEMENTS`
        positioning the ``n_sources - 1`` extra sources around the
        deployment's eccentricity-vetted source (``"random"``, ``"spread"``
        or ``"corner"``); ignored for ``n_sources=1``.  Each cell derives
        its placement seed by splitting the cell seed on ``"multi-source"``,
        so records stay bit-identical for any worker count and engine.
    solver:
        Named tier from :data:`repro.solvers.SOLVER_TIERS` added to the
        policy line-up of every sweep (``--list-solvers`` on the CLI prints
        the catalog).  ``"heuristic"`` — the paper's E-model, already part
        of every default line-up — keeps the sweep bit-identical to
        pre-solver records.  The exact tier carries an instance-size cap
        (``max_nodes``); it and the 17/26-approximation baselines replay
        fixed plans, so they require reliable links and a single source;
        both constraints are enforced here, at configuration time.  The
        solver is *workload* configuration (it changes which records a cell
        produces), so it participates in the store's cell keys.
    """

    node_counts: tuple[int, ...] = (50, 100, 150, 200, 250, 300)
    area_side: float = 50.0
    radius: float = 10.0
    repetitions: int = 5
    seed: int = 2012
    source_min_ecc: int = 5
    source_max_ecc: int | None = 8
    search: SearchConfig = field(
        default_factory=lambda: SearchConfig(mode="beam", beam_width=8)
    )
    max_color_classes: int | None = 32
    engine: str = "reference"
    workers: int = 1
    scenario: str = "uniform"
    duty_model: str = "uniform"
    link_model: str = "reliable"
    loss_probability: float = 0.0
    n_sources: int = 1
    source_placement: str = "random"
    solver: str = "heuristic"

    def __post_init__(self) -> None:
        require(len(self.node_counts) > 0, "node_counts must not be empty")
        require(all(n >= 2 for n in self.node_counts), "node counts must be >= 2")
        require(self.repetitions >= 1, "repetitions must be >= 1")
        require(
            self.engine in ENGINE_BACKENDS,
            f"unknown engine {self.engine!r}; expected one of {sorted(ENGINE_BACKENDS)}",
        )
        require(self.workers >= 0, "workers must be >= 0 (0 = one per CPU)")
        require(
            self.max_color_classes is None or self.max_color_classes >= 1,
            f"max_color_classes must be None (uncapped) or >= 1, got {self.max_color_classes}",
        )
        require(
            self.scenario in scenario_names(),
            f"unknown scenario {self.scenario!r}; registered: {scenario_names()}",
        )
        require(
            self.duty_model in duty_model_names(),
            f"unknown duty model {self.duty_model!r}; registered: {duty_model_names()}",
        )
        require(
            self.link_model in link_model_names(),
            f"unknown link model {self.link_model!r}; registered: {link_model_names()}",
        )
        check_probability("loss_probability", self.loss_probability)
        require(
            self.link_model != "reliable" or self.loss_probability == 0.0,
            "loss_probability > 0 requires link_model='independent-loss' "
            "(reliable links never drop deliveries)",
        )
        require(self.n_sources >= 1, "n_sources must be >= 1")
        require(
            self.n_sources <= min(self.node_counts),
            f"n_sources={self.n_sources} exceeds the smallest node count "
            f"{min(self.node_counts)}",
        )
        require(
            self.source_placement in placement_names(),
            f"unknown source placement {self.source_placement!r}; "
            f"registered: {placement_names()}",
        )
        require(
            self.solver in solver_names(),
            f"unknown solver tier {self.solver!r}; registered: {solver_names()}",
        )
        tier = SOLVER_TIERS[self.solver]
        require(
            tier.max_nodes is None or max(self.node_counts) <= tier.max_nodes,
            f"solver tier {self.solver!r} accepts at most {tier.max_nodes} "
            f"nodes, but the grid goes up to {max(self.node_counts)}; use "
            "smaller node_counts or a scalable tier (--list-solvers)",
        )
        require(
            tier.loss_tolerant
            or (self.link_model == "reliable" and self.n_sources == 1),
            f"solver tier {self.solver!r} replays a fixed plan and needs "
            "reliable links and a single source; pick a loss-tolerant tier "
            "for the loss and multi-source axes (--list-solvers)",
        )

    def cell_key_fields(self) -> dict[str, object]:
        """The config fields that parameterise one cell's content digest.

        Everything that can change a cell's records is included (scenario,
        duty model, link model, loss probability, sources, geometry, seed,
        search configuration, ...); the fields in
        :data:`CELL_KEY_EXCLUDED_FIELDS` are dropped because they change
        execution speed or grid shape, never record content.  Nested
        dataclasses (``search``) come back as plain dicts so the result is
        directly JSON-serialisable for hashing.
        """
        fields = dataclasses.asdict(self)
        for name in CELL_KEY_EXCLUDED_FIELDS:
            fields.pop(name)
        return fields

    @property
    def densities(self) -> tuple[float, ...]:
        """Nodes per sq-ft per node count (the paper's x-axis)."""
        area = self.area_side * self.area_side
        return tuple(n / area for n in self.node_counts)

    def with_repetitions(self, repetitions: int) -> "SweepConfig":
        """A copy with a different repetition count."""
        return replace(self, repetitions=repetitions)

    def with_loss(self, loss_probability: float) -> "SweepConfig":
        """A copy on the loss axis: ``0.0`` selects reliable links.

        The reliability figure sweeps this knob; the zero point maps back
        to ``"reliable"`` so its records are bit-identical to a plain sweep.
        """
        return replace(
            self,
            link_model="reliable" if loss_probability == 0.0 else "independent-loss",
            loss_probability=loss_probability,
        )

    def with_sources(self, n_sources: int, placement: str | None = None) -> "SweepConfig":
        """A copy on the multi-source axis (``1`` is the paper's workload).

        The multisource figure sweeps this knob; ``n_sources=1`` records are
        bit-identical to a plain sweep of the same configuration.
        """
        return replace(
            self,
            n_sources=n_sources,
            source_placement=self.source_placement if placement is None else placement,
        )


#: The paper's full parameterisation (Section V-A).
PAPER_SWEEP = SweepConfig()

#: A reduced sweep for fast benchmark runs (same qualitative comparisons).
QUICK_SWEEP = SweepConfig(
    node_counts=(50, 100, 150),
    repetitions=2,
    search=SearchConfig(mode="beam", beam_width=4),
    max_color_classes=16,
)

#: The approximation-ratio study's workload: instances small enough for the
#: exact tier (``max_nodes``), a tighter area so sparse deployments stay
#: connected, and a relaxed source-eccentricity vetting (hop distances of
#: 5-8 are unreachable at these sizes).  ``figures.figure_ratio`` sweeps
#: this grid per (scenario, duty model) and divides every policy's latency
#: by the exact optimum of the same cell.
RATIO_SWEEP = SweepConfig(
    node_counts=(6, 8, 10),
    area_side=20.0,
    repetitions=3,
    source_min_ecc=2,
    source_max_ecc=None,
    solver="exact",
)


def sweep_from_env(default: ExperimentScale = ExperimentScale.QUICK) -> SweepConfig:
    """Pick the sweep configuration from :data:`SCALE_ENV_VAR`.

    Unknown values fall back to ``default`` (quick) so that a typo never
    silently triggers an hour-long benchmark run.
    """
    raw = os.environ.get(SCALE_ENV_VAR, default.value).strip().lower()
    if raw == ExperimentScale.PAPER.value:
        return PAPER_SWEEP
    return QUICK_SWEEP
