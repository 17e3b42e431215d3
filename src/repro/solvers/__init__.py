"""Solver tiers: exact schedulers, proved-bound baselines, heuristics.

The packages below this one *run* the paper's algorithm; this package
*audits* it.  :data:`SOLVER_TIERS` catalogs every guarantee level — from
the exact branch-and-bound down to the paper's E-model heuristic — behind
one registry, and :func:`solve_broadcast` computes certified optimal
schedules that replay through the ordinary simulation engines.  Two
independent value voters check the exact tier: the brute-force oracle and
a scipy/HiGHS ILP (:func:`minimum_completion_ilp`).  The observed-vs-proved
approximation-ratio study (``figures.figure_ratio`` /
``report.ratio_claims``, CLI target ``ratio``) is built on top; see
``docs/solvers.md`` for the catalog and the exact-solver determinism
contract.
"""

from repro.solvers.branch_bound import (
    DEFAULT_MAX_STATES,
    SolverError,
    SolverLimitExceeded,
    SolverPlan,
    extract_plan,
    flood_completion_bound,
    greedy_completion,
    minimum_completion,
    solve_broadcast,
)
from repro.solvers.bruteforce import brute_force_completion
from repro.solvers.ilp import ilp_available, minimum_completion_ilp
from repro.solvers.policies import ExactPolicy
from repro.solvers.registry import (
    SOLVER_TIERS,
    SolverTier,
    solver_catalog,
    solver_names,
)

__all__ = [
    "SOLVER_TIERS",
    "SolverTier",
    "solver_names",
    "solver_catalog",
    "solve_broadcast",
    "SolverPlan",
    "SolverError",
    "SolverLimitExceeded",
    "ExactPolicy",
    "minimum_completion",
    "extract_plan",
    "flood_completion_bound",
    "greedy_completion",
    "brute_force_completion",
    "ilp_available",
    "minimum_completion_ilp",
    "DEFAULT_MAX_STATES",
]
