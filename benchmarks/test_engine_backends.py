"""Backend microbenchmark: reference vs vectorized engines on a 500-node sweep.

The workload is a paper-shaped duty-cycle sweep at 500 nodes (50 x 50 sq-ft,
10-ft radius, cycle rates 10 and 50) with three schedulers.  Three
measurements are taken, all on *recorded traces* so that zero policy cost
pollutes the comparison (the policies are identical under both backends by
the parity guarantee):

* **parity** — both engines replay every trace bit-identically and both
  validator backends return a clean bill (this is the part the CI smoke job
  runs; it is assertion-only and timing-free);
* **kernel throughput** — the per-advance check itself
  (``conflicting_pairs`` + ``receivers_of`` per advance versus the mask
  step check ``repro.sim.step.check_step`` the vectorized engine runs),
  replayed over every advance of the sweep.  This isolates exactly the
  set-algebra the vectorized backend replaces with int-mask operations;
  the paper-scale run asserts the >= 5x speedup target;
* **end-to-end replay latency** — ``run_broadcast`` + trace validation per
  backend.  Engine-side machinery only; reported and gated loosely (the
  sequential policy protocol bounds this at a smaller factor than the
  kernels).

Results are written as ``engine-backends.json`` in the benchmark results
directory (``$REPRO_BENCH_DIR``, default ``bench-results``) so CI can
upload them as an artifact.  ``REPRO_BENCH_SCALE=paper`` enables the
timing assertions; the default quick scale measures but only asserts
parity.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.network.interference import conflicting_pairs, receivers_of
from repro.sim.broadcast import run_broadcast
from repro.sim.replay import ReplayPolicy
from repro.sim.step import check_step
from repro.sim.validation import validate_broadcast

from _bench_utils import (
    emit,
    paper_scale as _paper_scale,
    time_per_call as _time_per_call,
    write_results,
)

NUM_NODES = 500
DUTY_RATES = (10, 50)
POLICIES = {
    "largest-first": LargestFirstPolicy,
    "17-approx": Approx17Policy,
    "E-model": EModelPolicy,
}
SPEEDUP_TARGET = 5.0


@pytest.fixture(scope="module")
def results_sink():
    """Accumulates benchmark numbers; written as a JSON artifact at teardown."""
    results: dict = {
        "workload": {
            "num_nodes": NUM_NODES,
            "duty_rates": list(DUTY_RATES),
            "policies": sorted(POLICIES),
            "scale": "paper" if _paper_scale() else "quick",
        }
    }
    yield results
    write_results("engine-backends", results)


@pytest.fixture(scope="module")
def sweep_workload():
    """The recorded 500-node duty-cycle sweep: (topology, [(name, rate, schedule, trace)])."""
    config = DeploymentConfig(
        num_nodes=NUM_NODES,
        area_side=50.0,
        radius=10.0,
        source_min_ecc=5,
        source_max_ecc=8,
    )
    topology, source = deploy_uniform(config=config, seed=2012)
    entries = []
    for rate in DUTY_RATES:
        schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=rate)
        for name, make_policy in POLICIES.items():
            trace = run_broadcast(
                topology,
                source,
                make_policy(),
                schedule=schedule,
                align_start=True,
                validate=False,
            )
            entries.append((name, rate, schedule, trace))
    return topology, source, entries


@pytest.mark.ablation
def test_backend_parity_on_500_node_sweep(sweep_workload):
    """Every trace replays bit-identically and validates cleanly on both backends."""
    topology, source, entries = sweep_workload
    for name, rate, schedule, trace in entries:
        for engine in ("reference", "vectorized"):
            replayed = run_broadcast(
                topology,
                source,
                ReplayPolicy(trace),
                schedule=schedule,
                start_time=trace.start_time,
                validate=True,
                engine=engine,
            )
            assert replayed == trace, f"{name} r={rate}: {engine} replay diverged"
        for backend in ("reference", "vectorized"):
            violations = validate_broadcast(
                topology, trace, schedule=schedule, backend=backend
            )
            assert violations == [], f"{name} r={rate}: {backend} validator objects"


@pytest.mark.ablation
def test_interference_kernel_speedup(sweep_workload, results_sink):
    """The mask step check beats the set-based interference check by >= 5x.

    One *pass* replays coverage through every advance of every trace of the
    sweep, computing the conflict check and the receiver set per advance —
    the per-advance work of the vectorized engine, which runs
    :func:`~repro.sim.step.check_step` on every advance.  Quick scale
    records the numbers; paper scale enforces the target.
    """
    topology, _, entries = sweep_workload

    def reference_pass() -> None:
        for _, _, _, trace in entries:
            covered = frozenset({trace.source})
            for advance in trace.advances:
                assert not conflicting_pairs(topology, advance.color, covered)
                received = receivers_of(topology, advance.color, covered)
                assert received == advance.receivers
                covered = covered | received

    def vectorized_pass() -> None:
        for _, _, _, trace in entries:
            covered = 1 << topology.index_of(trace.source)
            for advance in trace.advances:
                masks = check_step(topology, advance, covered, -1)
                assert masks is not None
                covered |= masks[2]

    reps = 20 if _paper_scale() else 5
    reference_s = _time_per_call(reference_pass, min_reps=reps)
    vectorized_s = _time_per_call(vectorized_pass, min_reps=reps)
    speedup = reference_s / vectorized_s
    results_sink["kernel"] = {
        "reference_ms_per_pass": reference_s * 1e3,
        "vectorized_ms_per_pass": vectorized_s * 1e3,
        "speedup": speedup,
        "target": SPEEDUP_TARGET,
    }
    emit(
        "Per-advance check throughput (500-node duty-cycle sweep)",
        f"reference:  {reference_s * 1e3:8.3f} ms/pass\n"
        f"mask step:  {vectorized_s * 1e3:8.3f} ms/pass\n"
        f"speedup:    {speedup:8.2f}x  (target >= {SPEEDUP_TARGET}x at paper scale)",
    )
    if _paper_scale():
        assert speedup >= SPEEDUP_TARGET, (
            f"mask step check only {speedup:.2f}x faster; "
            f"expected >= {SPEEDUP_TARGET}x"
        )


@pytest.mark.ablation
def test_replay_latency_per_backend(sweep_workload, results_sink):
    """End-to-end engine+validation latency per backend on each trace."""
    topology, source, entries = sweep_workload
    reps = 30 if _paper_scale() else 5
    per_config: dict[str, dict[str, float]] = {}
    totals = {"reference": 0.0, "vectorized": 0.0}
    for name, rate, schedule, trace in entries:
        policy = ReplayPolicy(trace)
        row: dict[str, float] = {}
        for engine in ("reference", "vectorized"):

            def one_run(engine: str = engine) -> None:
                run_broadcast(
                    topology,
                    source,
                    policy,
                    schedule=schedule,
                    start_time=trace.start_time,
                    validate=True,
                    engine=engine,
                )

            seconds = _time_per_call(one_run, min_reps=reps)
            row[engine] = seconds * 1e3
            totals[engine] += seconds
        row["speedup"] = row["reference"] / row["vectorized"]
        per_config[f"{name}-r{rate}"] = row
    total_speedup = totals["reference"] / totals["vectorized"]
    results_sink["replay"] = {
        "per_config_ms": per_config,
        "total_reference_ms": totals["reference"] * 1e3,
        "total_vectorized_ms": totals["vectorized"] * 1e3,
        "total_speedup": total_speedup,
    }
    lines = [
        f"{key:>20}: ref {row['reference']:7.3f} ms  vec {row['vectorized']:7.3f} ms"
        f"  ({row['speedup']:.2f}x)"
        for key, row in per_config.items()
    ]
    lines.append(f"{'sweep total':>20}: {total_speedup:.2f}x")
    emit("Replay latency per backend (engine + validation)", "\n".join(lines))
    if _paper_scale():
        # The sequential policy protocol bounds this below the kernel
        # speedup; gate regressions, not the headline number.
        assert total_speedup >= 1.5, (
            f"vectorized backend no longer faster end-to-end ({total_speedup:.2f}x)"
        )
