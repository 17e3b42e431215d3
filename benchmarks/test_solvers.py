"""Exact-solver benchmark: branch-and-bound vs ILP value wall time, small-n grid.

The exact tier takes its value from :func:`repro.solvers.minimum_completion`
(the pure-python branch-and-bound); :func:`repro.solvers.minimum_completion_ilp`
is an independent voter computing the same optimum with a HiGHS MILP.
This benchmark measures both per instance of a small-n grid in both system
models.  Three assertions:

* **agreement** — on every instance both report the same optimum;
* **certification** — the admissible lower bound never exceeds the
  optimum, and the extracted plan's latency matches it;
* **availability** — the branch-and-bound runs everywhere; the ILP rows
  are recorded only where scipy/HiGHS is importable (the JSON notes which).

Results are written as ``BENCH_solvers.json`` in the benchmark results
directory (``$REPRO_BENCH_DIR``, default ``bench-results``) so CI can
upload them as an artifact alongside the other ``BENCH_*`` files.
"""

from __future__ import annotations

import functools

import pytest

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.solvers import (
    ilp_available,
    minimum_completion,
    minimum_completion_ilp,
    solve_broadcast,
)

from _bench_utils import emit, time_per_call, write_results

#: (num_nodes, seed) per grid instance — sparse enough that interference
#: bites (the flood bound is not tight and the search must branch).
INSTANCES = ((6, 11), (8, 12), (10, 3), (12, 5))
SYSTEMS = ("sync", "duty")
DUTY_RATE = 4


def _instance(num_nodes: int, seed: int):
    config = DeploymentConfig(
        num_nodes=num_nodes,
        area_side=16.0 if num_nodes <= 8 else 22.0,
        radius=6.0,
        source_min_ecc=2,
        source_max_ecc=None,
    )
    return deploy_uniform(config=config, seed=seed)


def _schedule_for(topology, system: str) -> WakeupSchedule | None:
    if system == "sync":
        return None
    return WakeupSchedule(topology.node_ids, rate=DUTY_RATE, seed=9)


#: The optimal-value solvers timed, by report column.
SOLVERS = {
    "branch-and-bound": lambda *args, **kwargs: minimum_completion(*args, **kwargs)[0],
    "ilp": minimum_completion_ilp,
}


@pytest.fixture(scope="module")
def results():
    solvers = ["branch-and-bound"] + (["ilp"] if ilp_available() else [])
    rows = []
    for num_nodes, seed in INSTANCES:
        topology, source = _instance(num_nodes, seed)
        covered = frozenset({source})
        for system in SYSTEMS:
            schedule = _schedule_for(topology, system)
            plan = solve_broadcast(topology, source, schedule=schedule)
            optima = {}
            timings = {}
            for name in solvers:
                solve = functools.partial(
                    SOLVERS[name], topology, covered, schedule=schedule
                )
                optima[name] = solve()
                timings[name] = time_per_call(solve, min_reps=3, budget_s=0.5)
            rows.append(
                {
                    "num_nodes": num_nodes,
                    "seed": seed,
                    "system": system,
                    "optimum": plan.optimum,
                    "lower_bound": plan.lower_bound,
                    "explored": plan.explored,
                    "seconds": timings,
                    "optima": optima,
                    "plan": plan,
                }
            )
    return {"solvers": solvers, "rows": rows}


def test_solvers_agree_on_every_instance(results):
    for row in results["rows"]:
        plan = row["plan"]
        assert plan.lower_bound <= plan.optimum
        assert plan.latency == plan.optimum - plan.start_time + 1
        assert set(row["optima"].values()) == {plan.optimum}


def test_report_and_emit_json(results):
    header = f"{'instance':<14} {'system':<6} {'optimum':>7} {'explored':>8}"
    for name in results["solvers"]:
        header += f" {name + ' (ms)':>22}"
    lines = [header]
    payload_rows = []
    for row in results["rows"]:
        line = (
            f"n={row['num_nodes']:<3} s={row['seed']:<6} {row['system']:<6} "
            f"{row['optimum']:>7} {row['explored']:>8}"
        )
        for name in results["solvers"]:
            line += f" {row['seconds'][name] * 1e3:>22.3f}"
        lines.append(line)
        payload_rows.append({k: v for k, v in row.items() if k not in ("optima", "plan")})
    emit("Exact solver values: wall time per certified optimum", "\n".join(lines))

    payload = {
        "benchmark": "solver-values",
        "ilp_available": ilp_available(),
        "solvers": results["solvers"],
        "duty_rate": DUTY_RATE,
        "rows": payload_rows,
    }
    print(f"[wrote {write_results('BENCH_solvers', payload)}]")
