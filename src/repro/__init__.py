"""Minimum Latency Broadcasting with Conflict Awareness in WSNs (ICPP 2012).

This package reproduces the system described in

    Z. Jiang, D. Wu, M. Guo, J. Wu, R. Kline, X. Wang,
    "Minimum Latency Broadcasting with Conflict Awareness in Wireless
    Sensor Networks", Proc. 41st International Conference on Parallel
    Processing (ICPP), 2012, pp. 490-499.

The public API is re-exported here so that a downstream user can write::

    from repro import (
        WSNTopology, deploy_uniform, WakeupSchedule,
        GreedyOptPolicy, EModelPolicy, OptPolicy,
        run_broadcast, Approx26Policy, Approx17Policy,
    )

    topo, source = deploy_uniform(num_nodes=150, seed=7)
    result = run_broadcast(topo, source, EModelPolicy())
    print(result.latency)

Every name resolves on first access (:mod:`repro.utils.lazy`), so
importing the package loads none of the sub-packages below.

Sub-packages
------------
``repro.network``
    Unit-disc-graph WSN topologies, deployments, quadrants, boundary
    detection and the paper's example graphs (Figures 1 and 2).
``repro.dutycycle``
    Asynchronous duty-cycle substrate: pseudo-random wake-up schedules and
    cycle-waiting-time (CWT) queries.
``repro.core``
    The paper's contribution: the extended greedy colour scheme
    (Algorithm 1), the time counter ``M`` (Eqs. 4-8), the lightweight
    4-tuple estimation ``E`` (Algorithm 2, Eqs. 9-11) and the OPT /
    G-OPT / E-model scheduling policies (Algorithm 3).
``repro.baselines``
    Re-implementations of the hop-distance based baselines the paper
    compares against (26-approximation, 17-approximation) plus flooding.
``repro.sim``
    Round-based and slot-based broadcast simulators, trace recording,
    schedule validation and metrics.
``repro.solvers``
    The solver-tier catalog: the exact minimum-latency scheduler
    (branch-and-bound) behind the same policy interface,
    plus the registry (:data:`repro.solvers.SOLVER_TIERS`) grading every
    scheduler by its optimality guarantee.
``repro.experiments``
    The evaluation harness regenerating every figure and table of the
    paper's Section V, plus the approximation-ratio study built on the
    solver tiers.
"""

from repro.utils.lazy import lazy_namespace

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.core.advance": ("Advance", "BroadcastState"),
        "repro.core.bounds": (
            "duty_cycle_17_bound",
            "duty_cycle_opt_bound",
            "sync_26_bound",
            "sync_opt_bound",
        ),
        "repro.core.coloring": ("ColorScheme", "greedy_color_classes"),
        "repro.core.estimation": ("EdgeEstimate", "build_edge_estimate"),
        "repro.core.localized": ("LocalizedEModelPolicy",),
        "repro.core.policies": (
            "EModelPolicy",
            "GreedyOptPolicy",
            "OptPolicy",
            "SchedulingPolicy",
        ),
        "repro.core.time_counter": ("SearchConfig", "TimeCounter"),
        "repro.baselines.approx17": ("Approx17Policy",),
        "repro.baselines.approx26": ("Approx26Policy",),
        "repro.baselines.flooding": ("FloodingPolicy",),
        "repro.dutycycle.schedule": ("WakeupSchedule",),
        "repro.network.deployment": ("DeploymentConfig", "deploy_uniform"),
        "repro.network.graphs": ("figure1_topology", "figure2_topology"),
        "repro.network.sources": ("select_sources",),
        "repro.network.topology": ("Node", "WSNTopology"),
        "repro.sim.broadcast": ("run_broadcast",),
        "repro.sim.energy": ("EnergyModel", "EnergyReport", "energy_of_broadcast"),
        "repro.sim.links": ("IndependentLossLinks", "LinkModel", "ReliableLinks"),
        "repro.sim.metrics": ("BroadcastMetrics", "MultiBroadcastMetrics"),
        "repro.sim.trace": ("BroadcastResult", "MultiBroadcastResult"),
        "repro.solvers.branch_bound": ("SolverPlan", "solve_broadcast"),
        "repro.solvers.policies": ("ExactPolicy",),
        "repro.solvers.registry": ("SOLVER_TIERS", "SolverTier", "solver_names"),
    },
)
__all__.append("__version__")
