"""The solver-tier registry: one catalog for every scheduler guarantee level.

Mirrors the other capability registries of the stack
(:data:`repro.sim.broadcast.ENGINE_BACKENDS`,
:data:`repro.sim.links.LINK_MODELS`, the scenario and duty-model
registries): :data:`SOLVER_TIERS` maps a tier name to a
:class:`SolverTier` describing its optimality guarantee, instance-size
limit and workload support, plus the policy factory that realises it.  The
experiment configuration (``SweepConfig.solver``), the CLI
(``--solver`` / ``--list-solvers``) and the docs catalog
(``docs/solvers.md``, kept in sync by a test) all resolve tiers through
this table, so a new tier plugs in here and is immediately selectable
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy, SchedulingPolicy
from repro.solvers.policies import ExactPolicy

__all__ = ["SolverTier", "SOLVER_TIERS", "solver_names", "solver_catalog"]


@dataclass(frozen=True)
class SolverTier:
    """One row of the solver catalog.

    Attributes
    ----------
    name:
        Registry key; also the policy name appearing in records and traces.
    summary:
        One-line description for ``--list-solvers`` and the docs catalog.
    guarantee:
        The tier's optimality guarantee (proved bound or ``optimal``).
    max_nodes:
        Largest instance the tier accepts (``None`` = unbounded).  Enforced
        by ``SweepConfig`` so an exact sweep fails at configuration time,
        not hours into a search.
    factory:
        Zero-argument policy factory (a class), picklable into sweep
        workers.  Its class attributes declare the tier's :attr:`systems`
        and whether it is :attr:`loss_tolerant`.
    """

    name: str
    summary: str
    guarantee: str
    max_nodes: int | None
    factory: type[SchedulingPolicy]

    @property
    def systems(self) -> tuple[str, ...]:
        """System models the tier schedules for (``"sync"``, ``"duty"``)."""
        return self.factory.systems

    @property
    def loss_tolerant(self) -> bool:
        """Whether the tier keeps working over lossy links *and* under
        multi-source slot contention (planned tiers replay a fixed schedule
        and support neither)."""
        return self.factory.loss_tolerant


#: Every selectable solver tier, strongest guarantee first.
SOLVER_TIERS: dict[str, SolverTier] = {
    tier.name: tier
    for tier in (
        SolverTier(
            name="exact",
            summary="optimal schedule; value and canonical plan from the "
            "pure-python branch-and-bound",
            guarantee="optimal",
            max_nodes=16,
            factory=ExactPolicy,
        ),
        SolverTier(
            name="17-approx",
            summary="layered duty-cycle baseline of Jiao et al. "
            "(17·k·d proved bound)",
            guarantee="17-approximation",
            max_nodes=None,
            factory=Approx17Policy,
        ),
        SolverTier(
            name="26-approx",
            summary="layered synchronous baseline of Chen et al. "
            "(26-approximation proved bound)",
            guarantee="26-approximation",
            max_nodes=None,
            factory=Approx26Policy,
        ),
        SolverTier(
            name="heuristic",
            summary="the paper's E-model scheduler (no proved bound; the "
            "default tier of every sweep)",
            guarantee="heuristic",
            max_nodes=None,
            factory=EModelPolicy,
        ),
    )
}


def solver_names() -> tuple[str, ...]:
    """Registered tier names, strongest guarantee first."""
    return tuple(SOLVER_TIERS)


def solver_catalog() -> list[tuple[str, str]]:
    """``(name, summary)`` pairs for the CLI's ``--list-solvers`` catalog."""
    return [(tier.name, tier.summary) for tier in SOLVER_TIERS.values()]
