"""Lossy-backend microbenchmark: reference vs vectorized engines at loss=0.1.

The composable-core refactor lets the vectorized backend run the §VI lossy
link model inside its int-mask kernel — previously the loss axis was welded
to the reference engine.  This bench measures what that buys on a
paper-shaped 500-node synchronous deployment:

* **parity** — the lossy traces of both backends compare *equal* for the
  same (probability, seed), and both validator backends accept them as
  lossy traces (assertion-only, timing-free; the CI smoke job runs this);
* **lossy engine throughput** — ``run_broadcast`` with
  ``IndependentLossLinks(0.1)`` per backend, driven by a
  :class:`~repro.sim.replay.ReplayPolicy` over the *intended* advances so
  zero policy cost pollutes the comparison.  The reference path draws one
  scalar uniform per candidate delivery pair inside Python set loops; the
  vectorized path (``LinkModel.deliver_mask``) draws the identical stream
  as one array per advance over the colour and ``W`` masks.  The
  acceptance target is a >= 3x speedup at 500 nodes.  On a 1-CPU Linux
  container (Python 3.11, numpy 2) three runs measured 2.58-2.80x at the
  default scale and 2.55-2.78x with ``REPRO_BENCH_SCALE=paper``, so the
  paper-scale target is not met: the replayed broadcast is 9 advances of
  about 0.5-0.9 ms in all, and per-run fixed costs weigh on the ratio.

Results are written as ``BENCH_lossy_engines.json`` in the benchmark
results directory (``$REPRO_BENCH_DIR``, default ``bench-results``) so CI
can upload them as an artifact.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.replay import ReplayPolicy
from repro.sim.validation import validate_broadcast

from _bench_utils import (
    emit,
    paper_scale as _paper_scale,
    time_per_call as _time_per_call,
    write_results,
)

NUM_NODES = 500
LOSS_PROBABILITY = 0.1
LOSS_SEED = 2012
POLICIES = {
    "largest-first": LargestFirstPolicy,
    "E-model": EModelPolicy,
}
SPEEDUP_TARGET = 3.0
#: Loose floor enforced even at quick scale on noisy CI runners (the measured
#: ratio is 2.6-2.8x, see the module docstring; the full target is asserted
#: at paper scale, mirroring benchmarks/test_engine_backends.py).
QUICK_SPEEDUP_FLOOR = 1.5


@pytest.fixture(scope="module")
def results_sink():
    """Accumulates benchmark numbers; written as a JSON artifact at teardown."""
    results: dict = {
        "workload": {
            "num_nodes": NUM_NODES,
            "loss_probability": LOSS_PROBABILITY,
            "policies": sorted(POLICIES),
            "scale": "paper" if _paper_scale() else "quick",
            "speedup_target": SPEEDUP_TARGET,
        }
    }
    yield results
    write_results("BENCH_lossy_engines", results)


@pytest.fixture(scope="module")
def lossy_workload():
    """A 500-node deployment plus one verified lossy trace per policy.

    Each entry carries the recorded (delivered) trace and the *intended*
    trace — the same advances with their reliable-links receivers — whose
    replay through a lossy engine with the same seed reproduces the
    recorded trace exactly, with zero policy cost.
    """
    config = DeploymentConfig(
        num_nodes=NUM_NODES,
        area_side=50.0,
        radius=10.0,
        source_min_ecc=5,
        source_max_ecc=8,
    )
    topology, source = deploy_uniform(config=config, seed=2012)
    entries = []
    for name, make_policy in POLICIES.items():
        trace = run_broadcast(
            topology,
            source,
            make_policy(),
            link_model=IndependentLossLinks(LOSS_PROBABILITY, seed=LOSS_SEED),
            validate=False,
        )
        intended = dataclasses.replace(
            trace,
            advances=tuple(
                dataclasses.replace(
                    advance, receivers=advance.intended, intended_receivers=None
                )
                for advance in trace.advances
            ),
        )
        entries.append((name, trace, intended))
    return topology, source, entries


@pytest.mark.ablation
def test_lossy_backend_parity_on_500_nodes(lossy_workload):
    """Both backends produce equal lossy traces; both validators accept them."""
    topology, source, entries = lossy_workload
    for name, trace, _ in entries:
        vectorized = run_broadcast(
            topology,
            source,
            POLICIES[name](),
            link_model=IndependentLossLinks(LOSS_PROBABILITY, seed=LOSS_SEED),
            engine="vectorized",
            validate=False,
        )
        assert vectorized == trace, f"{name}: lossy traces diverged across backends"
        assert trace.failed_deliveries > 0, f"{name}: the workload exercised no losses"
        for backend in ("reference", "vectorized"):
            violations = validate_broadcast(
                topology, trace, backend=backend, lossy=True
            )
            assert violations == [], f"{name}: {backend} validator objects"


@pytest.mark.ablation
def test_lossy_engine_speedup(lossy_workload, results_sink):
    """The vectorized lossy path beats the reference lossy path by >= 3x.

    One pass replays the intended advances of every recorded trace through
    ``run_broadcast`` with the lossy link model (same seed, so the delivered
    trace is reproduced bit-for-bit) — engine + link-model + trace-validation
    machinery, i.e. exactly what one sweep-cell broadcast costs on each
    backend, with zero policy cost.
    """
    topology, source, entries = lossy_workload
    per_policy: dict[str, dict[str, float]] = {}
    totals = {"reference": 0.0, "vectorized": 0.0}
    reps = 10 if _paper_scale() else 3
    for name, trace, intended in entries:
        replay = ReplayPolicy(intended)
        row: dict[str, float] = {}
        for engine in ("reference", "vectorized"):

            def one_run(engine: str = engine) -> None:
                result = run_broadcast(
                    topology,
                    source,
                    replay,
                    start_time=trace.start_time,
                    link_model=IndependentLossLinks(LOSS_PROBABILITY, seed=LOSS_SEED),
                    engine=engine,
                    validate=False,
                )
                assert result == trace

            seconds = _time_per_call(one_run, min_reps=reps)
            row[engine] = seconds * 1e3
            totals[engine] += seconds
        row["speedup"] = row["reference"] / row["vectorized"]
        per_policy[name] = row
    total_speedup = totals["reference"] / totals["vectorized"]
    results_sink["lossy_engine"] = {
        "per_policy_ms": per_policy,
        "total_reference_ms": totals["reference"] * 1e3,
        "total_vectorized_ms": totals["vectorized"] * 1e3,
        "total_speedup": total_speedup,
    }
    lines = [
        f"{name:>15}: ref {row['reference']:8.3f} ms  vec {row['vectorized']:8.3f} ms"
        f"  ({row['speedup']:.2f}x)"
        for name, row in per_policy.items()
    ]
    lines.append(
        f"{'total':>15}: {total_speedup:.2f}x  (target >= {SPEEDUP_TARGET}x "
        f"at paper scale, >= {QUICK_SPEEDUP_FLOOR}x always)"
    )
    emit(
        f"Lossy engine throughput (500 nodes, loss={LOSS_PROBABILITY})",
        "\n".join(lines),
    )
    # Mirror test_engine_backends.py: enforce the headline target at paper
    # scale only; quick scale (CI smoke, shared runners) gates regressions
    # with a loose floor so timing noise cannot fail the build spuriously.
    floor = SPEEDUP_TARGET if _paper_scale() else QUICK_SPEEDUP_FLOOR
    assert total_speedup >= floor, (
        f"vectorized lossy path only {total_speedup:.2f}x faster than the "
        f"reference lossy path; expected >= {floor}x"
    )
