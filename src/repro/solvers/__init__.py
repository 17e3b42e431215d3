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

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.solvers.branch_bound": (
            "DEFAULT_MAX_STATES",
            "SolverError",
            "SolverLimitExceeded",
            "SolverPlan",
            "extract_plan",
            "flood_completion_bound",
            "greedy_completion",
            "minimum_completion",
            "solve_broadcast",
        ),
        "repro.solvers.bruteforce": ("brute_force_completion",),
        "repro.solvers.ilp": ("ilp_available", "minimum_completion_ilp"),
        "repro.solvers.policies": ("ExactPolicy",),
        "repro.solvers.registry": ("SOLVER_TIERS", "SolverTier", "solver_catalog", "solver_names"),
    },
)
