"""Unit tests for the exact solver tier (repro.solvers).

The load-bearing checks: the branch-and-bound matches the exhaustive
brute-force oracle on every small instance of the grid (which
independently verifies its two dominance arguments), the ILP voter —
when scipy is importable — agrees with both, and the extracted plan
replays bit-identically through both simulation engines (the determinism
contract of ``docs/solvers.md``).
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.models import duty_model_names
from repro.dutycycle.schedule import WakeupSchedule
from repro.experiments.config import RATIO_SWEEP
from repro.experiments.runner import run_sweep
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.graphs import FIGURE2_SOURCE, figure2_topology
from repro.network.topology import WSNTopology
from repro.scenarios.registry import scenario_names
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.utils.rng import make_rng
from repro.solvers import (
    SOLVER_TIERS,
    ExactPolicy,
    SolverError,
    SolverLimitExceeded,
    brute_force_completion,
    extract_plan,
    flood_completion_bound,
    greedy_completion,
    ilp_available,
    minimum_completion,
    minimum_completion_ilp,
    solve_broadcast,
    solver_catalog,
    solver_names,
)


def _line(num_nodes: int) -> WSNTopology:
    positions = {i: (float(i), 0.0) for i in range(num_nodes)}
    return WSNTopology.from_edges(
        [(i, i + 1) for i in range(num_nodes - 1)], positions
    )


def _sparse(num_nodes: int, seed: int) -> tuple[WSNTopology, int]:
    """A sparse connected deployment where interference actually bites
    (the flood bound is not tight, so the branch-and-bound must search)."""
    config = DeploymentConfig(
        num_nodes=num_nodes,
        area_side=16.0,
        radius=6.0,
        source_min_ecc=2,
        source_max_ecc=None,
    )
    return deploy_uniform(config=config, seed=seed)


def _small_instances() -> list[tuple[str, WSNTopology, int]]:
    """The brute-forceable verification grid: every instance has <= 8 nodes."""
    dense_config = DeploymentConfig(
        num_nodes=5,
        area_side=10.0,
        radius=6.0,
        source_min_ecc=1,
        source_max_ecc=None,
    )
    cases = [("dense-5", *deploy_uniform(config=dense_config, seed=1))]
    for num_nodes, seed in ((6, 11), (6, 21), (8, 12), (8, 21)):
        cases.append((f"sparse-{num_nodes}-s{seed}", *_sparse(num_nodes, seed)))
    cases.append(("line-6", _line(6), 0))
    return cases


GRID = _small_instances()
GRID_IDS = [name for name, _, _ in GRID]
SYSTEMS = ("sync", "duty")


def _schedule_for(topology: WSNTopology, system: str) -> WakeupSchedule | None:
    if system == "sync":
        return None
    return WakeupSchedule(topology.node_ids, rate=4, seed=9)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name,topology,source", GRID, ids=GRID_IDS)
class TestExactValueMatchesOracle:
    def test_branch_and_bound_matches_brute_force(self, name, topology, source, system):
        schedule = _schedule_for(topology, system)
        covered = frozenset({source})
        optimum, lower_bound, explored = minimum_completion(
            topology, covered, schedule=schedule
        )
        assert optimum == brute_force_completion(topology, covered, schedule=schedule)
        assert lower_bound <= optimum  # the flood bound is admissible
        assert explored >= 0

    def test_greedy_is_feasible_hence_an_upper_bound(
        self, name, topology, source, system
    ):
        schedule = _schedule_for(topology, system)
        covered = frozenset({source})
        optimum, _, _ = minimum_completion(topology, covered, schedule=schedule)
        greedy = greedy_completion(topology, covered, 1, schedule)
        assert greedy is not None
        assert optimum <= greedy

    @pytest.mark.skipif(not ilp_available(), reason="scipy/HiGHS not importable")
    def test_ilp_agrees_with_branch_and_bound(self, name, topology, source, system):
        schedule = _schedule_for(topology, system)
        covered = frozenset({source})
        optimum, _, _ = minimum_completion(topology, covered, schedule=schedule)
        assert minimum_completion_ilp(topology, covered, schedule=schedule) == optimum


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name,topology,source", GRID, ids=GRID_IDS)
class TestDeterminismContract:
    def test_plan_lower_bound_is_admissible(self, name, topology, source, system):
        plan = solve_broadcast(topology, source, schedule=_schedule_for(topology, system))
        assert plan.lower_bound <= plan.optimum

    def test_plan_replays_bit_identically_on_both_engines(
        self, name, topology, source, system
    ):
        schedule = _schedule_for(topology, system)
        reference = run_broadcast(
            topology,
            source,
            ExactPolicy(),
            schedule=schedule,
            align_start=schedule is not None,
            engine="reference",
        )
        vectorized = run_broadcast(
            topology,
            source,
            ExactPolicy(),
            schedule=schedule,
            align_start=schedule is not None,
            engine="vectorized",
        )
        assert reference == vectorized
        assert reference.covered == topology.node_set

    def test_policy_replays_the_solved_plan(self, name, topology, source, system):
        schedule = _schedule_for(topology, system)
        trace = run_broadcast(
            topology,
            source,
            ExactPolicy(),
            schedule=schedule,
            align_start=schedule is not None,
        )
        plan = solve_broadcast(
            topology, source, schedule=schedule, start_time=trace.start_time
        )
        assert trace.advances == plan.advances
        assert trace.end_time == plan.optimum

    def test_replayed_latency_never_beaten_by_heuristics(
        self, name, topology, source, system
    ):
        schedule = _schedule_for(topology, system)
        exact = run_broadcast(
            topology,
            source,
            ExactPolicy(),
            schedule=schedule,
            align_start=schedule is not None,
        )
        for make_policy in (GreedyOptPolicy, EModelPolicy):
            other = run_broadcast(
                topology,
                source,
                make_policy(),
                schedule=schedule,
                align_start=schedule is not None,
            )
            assert exact.latency <= other.latency


def _sync_flood_oracle(topology: WSNTopology, covered, time: int) -> int | None:
    """The synchronous flood bound as the Dijkstra relaxation computes it."""
    best = {u: time - 1 for u in covered}
    heap = [(time - 1, u) for u in sorted(covered)]
    heapq.heapify(heap)
    while heap:
        received, u = heapq.heappop(heap)
        if received > best.get(u, received):
            continue
        for v in topology.neighbors(u):
            if received + 1 < best.get(v, received + 2):
                best[v] = received + 1
                heapq.heappush(heap, (received + 1, v))
    if len(best) < topology.num_nodes:
        return None
    uncovered = topology.node_set - covered
    return max((best[v] for v in uncovered), default=time - 1)


class TestSyncFloodBound:
    """The sync bound is read off the hop matrix; it must equal the relaxation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_dijkstra_relaxation(self, seed):
        rng = make_rng(seed)
        num_nodes = int(rng.integers(5, 60))
        positions = rng.uniform(0.0, 30.0, size=(num_nodes, 2))
        # Radii from sparse (mostly disconnected) to dense (connected).
        topology = WSNTopology.from_positions(
            positions, radius=float(rng.uniform(3.0, 12.0)),
            node_ids=[2 * i + 1 for i in range(num_nodes)],
        )
        ids = list(topology.node_ids)
        states = [frozenset(), topology.node_set]
        for _ in range(20):
            size = int(rng.integers(1, num_nodes + 1))
            states.append(frozenset(int(u) for u in rng.choice(ids, size=size, replace=False)))
        for covered in states:
            time = int(rng.integers(1, 9))
            assert flood_completion_bound(topology, covered, time, None) == _sync_flood_oracle(
                topology, covered, time
            )

    def test_complete_and_disconnected_cases(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (9.0, 9.0), 3: (10.0, 9.0)}
        topology = WSNTopology.from_edges([(0, 1), (2, 3)], positions)
        assert flood_completion_bound(topology, topology.node_set, 5, None) == 4
        assert flood_completion_bound(topology, frozenset({0, 2}), 3, None) == 3
        assert flood_completion_bound(topology, frozenset({0, 1}), 3, None) is None


class TestSolverEdges:
    def test_already_covered_instance_is_trivial(self):
        topology = _line(4)
        covered = topology.node_set
        assert minimum_completion(topology, covered)[0] == 0
        assert brute_force_completion(topology, covered) == 0
        assert extract_plan(topology, covered, 0) == ((), 0)

    def test_disconnected_topology_raises(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (9.0, 9.0), 3: (10.0, 9.0)}
        topology = WSNTopology.from_edges([(0, 1), (2, 3)], positions)
        assert flood_completion_bound(topology, frozenset({0}), 1, None) is None
        with pytest.raises(SolverError, match="disconnected"):
            minimum_completion(topology, frozenset({0}))
        with pytest.raises(SolverError, match="disconnected"):
            brute_force_completion(topology, frozenset({0}))

    def test_grid_is_not_trivially_bounded(self):
        """At least one grid instance forces the search to branch (otherwise
        the grid would never exercise the dominance arguments)."""
        explored_total = 0
        for _, topology, source in GRID:
            for system in SYSTEMS:
                schedule = _schedule_for(topology, system)
                explored_total += minimum_completion(
                    topology, frozenset({source}), schedule=schedule
                )[2]
        assert explored_total > 0

    def test_state_budget_is_enforced(self):
        topology, source = _sparse(8, 12)
        with pytest.raises(SolverLimitExceeded, match="search states"):
            minimum_completion(topology, frozenset({source}), max_states=0)

    def test_wrong_deadline_is_rejected(self):
        topology = _line(6)
        optimum, _, _ = minimum_completion(topology, frozenset({0}))
        with pytest.raises(SolverError, match="deadline"):
            extract_plan(topology, frozenset({0}), optimum - 1)

    def test_importing_the_package_leaves_scipy_unloaded(self):
        """The ILP imports scipy only when it builds a MILP."""
        code = "import sys, repro; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert result.stdout.strip() == "False"

    def test_line_optimum_is_the_eccentricity(self):
        """Hand-checkable: on a line, one hop per slot is optimal (sync)."""
        topology = _line(6)
        plan = solve_broadcast(topology, 0)
        assert plan.latency == 5
        assert plan.lower_bound == plan.optimum  # the flood bound is tight here


def _ilp_voter(topology, covered, *, schedule=None):
    if not ilp_available():
        pytest.skip("scipy/HiGHS not importable")
    return minimum_completion_ilp(topology, covered, schedule=schedule)


_FIGURE2 = figure2_topology()
#: ``(covered, schedule)`` pairs on Figure 2 no value entry point may accept.
_MALFORMED = {
    "schedule-missing-nodes": (
        frozenset({FIGURE2_SOURCE}),
        WakeupSchedule((1, 2, 3), rate=4, seed=9),
    ),
    "unknown-covered-node": (frozenset({FIGURE2_SOURCE, 99}), None),
    "empty-covered-set": (frozenset(), None),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize(
    "voter",
    [minimum_completion, brute_force_completion, _ilp_voter],
    ids=["branch-and-bound", "brute-force", "ilp"],
)
def test_value_entry_points_reject_malformed_instances(voter, case):
    covered, schedule = _MALFORMED[case]
    with pytest.raises(ValueError):
        voter(_FIGURE2, covered, schedule=schedule)


_RATIO_GRID = [
    ("sync", scenario, "uniform")
    for scenario in scenario_names()
    if scenario != "knn"
] + [
    ("duty", scenario, duty_model)
    for scenario in scenario_names()
    if scenario != "knn"
    for duty_model in duty_model_names()
]


@pytest.mark.parametrize(
    "system,scenario,duty_model",
    _RATIO_GRID,
    ids=[f"{s}-{sc}-{d}" if s == "duty" else f"{s}-{sc}" for s, sc, d in _RATIO_GRID],
)
def test_exact_opt_ends_at_the_certified_optimum(system, scenario, duty_model):
    """The paper's OPT with exact ``M`` over every maximal colour is optimal.

    Every ``RATIO_SWEEP`` cell (knn fails source vetting at these sizes),
    synchronous and duty-cycle ``r = 4``.
    """
    config = dataclasses.replace(RATIO_SWEEP, scenario=scenario, duty_model=duty_model)
    sweep = run_sweep(
        config,
        system=system,
        rate=4,
        policies={
            "certified": ExactPolicy,
            "OPT": functools.partial(
                OptPolicy, search=SearchConfig(mode="exact"), max_color_classes=None
            ),
        },
        workers=1,
    )
    certified = {(r.num_nodes, r.repetition): r.end_time for r in sweep.records_for("certified")}
    opt = {(r.num_nodes, r.repetition): r.end_time for r in sweep.records_for("OPT")}
    assert len(certified) == len(RATIO_SWEEP.node_counts) * RATIO_SWEEP.repetitions
    assert opt == certified


class TestSolverPolicies:
    def test_policy_requires_prepare(self):
        from repro.core.advance import BroadcastState

        topology = _line(5)
        state = BroadcastState(topology, frozenset({0}), time=1)
        with pytest.raises(RuntimeError, match="prepare"):
            ExactPolicy().select_advance(state)

    def test_plan_exposed_after_first_decision(self):
        topology = _line(5)
        policy = ExactPolicy()
        assert policy.plan is None
        result = run_broadcast(topology, 0, policy)
        assert policy.plan is not None
        assert result.latency == policy.plan.latency

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_reused_policy_re_solves_through_prepare(self, system, engine):
        """One instance over many broadcasts traces like a fresh one each time."""
        reused = ExactPolicy()
        for num_nodes, seed in ((6, 11), (8, 12), (10, 3), (12, 5)):
            config = DeploymentConfig(
                num_nodes=num_nodes,
                area_side=16.0 if num_nodes <= 8 else 22.0,
                radius=6.0,
                source_min_ecc=2,
                source_max_ecc=None,
            )
            topology, source = deploy_uniform(config=config, seed=seed)
            kwargs = dict(
                schedule=_schedule_for(topology, system),
                align_start=system == "duty",
                engine=engine,
            )
            fresh = run_broadcast(topology, source, ExactPolicy(), **kwargs)
            assert run_broadcast(topology, source, reused, **kwargs) == fresh
            assert reused.plan.advances == fresh.advances

    def test_rejected_for_lossy_links(self):
        topology = _line(5)
        with pytest.raises(ValueError, match="cannot run over lossy links"):
            run_broadcast(
                topology,
                0,
                ExactPolicy(),
                link_model=IndependentLossLinks(0.2, seed=1),
            )

    def test_rejected_for_multi_source(self):
        topology = _line(6)
        with pytest.raises(ValueError, match="solver registry"):
            run_broadcast(topology, [0, 5], ExactPolicy())


class TestSolverRegistry:
    def test_names_match_catalog_and_registry(self):
        assert solver_names() == tuple(SOLVER_TIERS)
        assert [name for name, _ in solver_catalog()] == list(solver_names())
        assert solver_names() == ("exact", "17-approx", "26-approx", "heuristic")

    def test_strongest_guarantee_first(self):
        guarantees = [tier.guarantee for tier in SOLVER_TIERS.values()]
        assert guarantees[0] == "optimal"
        assert guarantees[-1] == "heuristic"

    def test_exact_tiers_carry_an_instance_limit(self):
        for tier in SOLVER_TIERS.values():
            if tier.guarantee == "optimal":
                assert tier.max_nodes is not None
            else:
                assert tier.max_nodes is None

    def test_factories_realise_the_tier(self):
        for name, tier in SOLVER_TIERS.items():
            policy = tier.factory()
            # The heuristic tier is the paper's E-model already present in
            # every line-up; every other tier records under its own name.
            expected = "E-model" if name == "heuristic" else name
            assert policy.name == expected

    def test_only_the_heuristic_tier_spans_the_loss_axis(self):
        lossy = [n for n, tier in SOLVER_TIERS.items() if tier.loss_tolerant]
        assert lossy == ["heuristic"]

    def test_system_support_matches_the_baselines(self):
        assert SOLVER_TIERS["17-approx"].systems == ("duty",)
        assert SOLVER_TIERS["26-approx"].systems == ("sync",)
        for name in ("exact", "heuristic"):
            assert SOLVER_TIERS[name].systems == ("sync", "duty")
