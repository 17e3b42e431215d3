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

from repro.core.advance import Advance, BroadcastState
from repro.core.bounds import (
    duty_cycle_17_bound,
    duty_cycle_opt_bound,
    sync_26_bound,
    sync_opt_bound,
)
from repro.core.coloring import ColorScheme, greedy_color_classes
from repro.core.estimation import EdgeEstimate, build_edge_estimate
from repro.core.localized import LocalizedEModelPolicy
from repro.core.policies import (
    EModelPolicy,
    GreedyOptPolicy,
    OptPolicy,
    SchedulingPolicy,
)
from repro.core.time_counter import SearchConfig, TimeCounter
from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.flooding import FloodingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.graphs import figure1_topology, figure2_topology
from repro.network.sources import select_sources
from repro.network.topology import Node, WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.energy import EnergyModel, EnergyReport, energy_of_broadcast
from repro.sim.links import IndependentLossLinks, LinkModel, ReliableLinks
from repro.sim.metrics import BroadcastMetrics, MultiBroadcastMetrics
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.solvers import (
    SOLVER_TIERS,
    ExactPolicy,
    SolverPlan,
    SolverTier,
    solve_broadcast,
    solver_names,
)

__version__ = "1.0.0"

__all__ = [
    "Advance",
    "Approx17Policy",
    "Approx26Policy",
    "BroadcastMetrics",
    "BroadcastResult",
    "BroadcastState",
    "ColorScheme",
    "DeploymentConfig",
    "EModelPolicy",
    "EdgeEstimate",
    "EnergyModel",
    "EnergyReport",
    "ExactPolicy",
    "FloodingPolicy",
    "GreedyOptPolicy",
    "IndependentLossLinks",
    "LinkModel",
    "LocalizedEModelPolicy",
    "MultiBroadcastMetrics",
    "MultiBroadcastResult",
    "Node",
    "ReliableLinks",
    "OptPolicy",
    "SOLVER_TIERS",
    "SchedulingPolicy",
    "SearchConfig",
    "SolverPlan",
    "SolverTier",
    "TimeCounter",
    "WakeupSchedule",
    "WSNTopology",
    "build_edge_estimate",
    "deploy_uniform",
    "duty_cycle_17_bound",
    "duty_cycle_opt_bound",
    "energy_of_broadcast",
    "figure1_topology",
    "figure2_topology",
    "greedy_color_classes",
    "run_broadcast",
    "select_sources",
    "solve_broadcast",
    "solver_names",
    "sync_26_bound",
    "sync_opt_bound",
    "__version__",
]
