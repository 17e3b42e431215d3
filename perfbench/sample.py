"""One benchmark sample: the workload's sweep, timed and checked.

``run_untraced`` times the public ``run_sweep`` call with tracing off.
``run_traced`` rebuilds the same cells from the layers' public functions and
times every call from outside (``mirror.py``).  Either way the records are
checked, and the result is a JSON-ready dict: timings, the records digest,
per-policy latency sums and every failed check.  ``child.py`` runs one
sample in a fresh interpreter under the speed gauge (``gauge.py``), which
scales every timing to a machine of fixed speed.

Sample ``index`` of a run at workload seed ``seed`` sweeps the grid at
``seed`` for index 0 and at a seed derived from ``(seed, index)`` otherwise
(``sweep_seed``), so every sample of a run simulates fresh deployments and
module caches never serve a later sample.  A sample that needs a store
creates it in a temporary directory under ``workdir`` and removes it
afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import shutil
import tempfile
import time
from typing import Sequence

from repro.core.bounds import (
    duty_cycle_17_bound,
    duty_cycle_opt_bound,
    sync_26_bound,
    sync_opt_bound,
)
from repro.experiments.config import SweepConfig
from repro.experiments.runner import RunRecord, default_policies, run_sweep
from repro.store import ExperimentStore
from repro.utils.rng import derive_seed
from repro.utils.serialization import canonical_json

from gauge import UNGAUGED, SpeedGauge
from mirror import traced_sweep
from workloads import Workload

__all__ = [
    "sweep_seed",
    "sweep_config",
    "line_up",
    "records_digest",
    "record_failures",
    "run_untraced",
    "run_traced",
]

_TIME_COUNTER_POLICIES = ("OPT", "G-OPT")


def sweep_seed(seed: int, index: int) -> int:
    """The sweep seed of sample ``index`` of a run at workload seed ``seed``."""
    return seed if index == 0 else derive_seed(seed, "perfbench-sample", index)


def sweep_config(
    workload: Workload, seed: int, node_counts: Sequence[int] | None = None
) -> SweepConfig:
    """The workload's grid at ``seed``; ``node_counts`` narrows it (self-check)."""
    return SweepConfig(
        node_counts=tuple(node_counts or workload.node_counts),
        repetitions=workload.repetitions if node_counts is None else 1,
        seed=seed,
        engine="vectorized",
        workers=1,
    )


def line_up(workload: Workload, config: SweepConfig) -> dict:
    """The workload's schedulers, taken from the paper's line-up."""
    paper = default_policies(config, workload.system)
    return {name: paper[name] for name in workload.line_up}


def records_digest(records: Sequence[RunRecord]) -> str:
    """SHA-256 over the canonical JSON of the records, in sweep order."""
    payload = canonical_json([dataclasses.asdict(record) for record in records])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_failures(
    workload: Workload, records: Sequence[RunRecord], expected: int
) -> list[str]:
    """Every broadcast of ``records`` that breaks a proved property.

    Each record must take at least its source eccentricity ``d``; OPT and
    G-OPT must stay within Theorem 1 (the bounds count elapsed slots, one
    less than the latency); the approximation baseline must stay within its
    proved bound, with ``2r`` as the duty-cycle wait.  Missing records count
    as failures too.
    """
    failures = [
        f"expected {expected} records, got {len(records)}"
    ] * abs(expected - len(records))
    for record in records:
        d = record.eccentricity
        where = f"{record.policy} n={record.num_nodes} rep={record.repetition}"
        if record.latency < d:
            failures.append(f"{where}: latency {record.latency} < eccentricity {d}")
        elif record.policy in _TIME_COUNTER_POLICIES:
            bound = (
                sync_opt_bound(d)
                if workload.system == "sync"
                else duty_cycle_opt_bound(workload.rate, d)
            )
            if record.latency - 1 > bound:
                failures.append(
                    f"{where}: {record.latency - 1} elapsed > Theorem 1 bound {bound}"
                )
        elif record.policy == workload.baseline:
            bound = (
                sync_26_bound(d)
                if workload.system == "sync"
                else duty_cycle_17_bound(d, 2 * workload.rate)
            )
            if record.latency > bound:
                failures.append(f"{where}: latency {record.latency} > bound {bound}")
    return failures


def _summary(workload: Workload, records: Sequence[RunRecord], expected: int) -> dict:
    latency_sum = dict.fromkeys(workload.line_up, 0)
    latency_n = dict.fromkeys(workload.line_up, 0)
    for record in records:
        latency_sum[record.policy] += record.latency
        latency_n[record.policy] += 1
    return {
        "digest": records_digest(records),
        "broadcasts": len(records),
        "failures": record_failures(workload, records, expected),
        "latency_sum": latency_sum,
        "latency_n": latency_n,
    }


def _fresh_store(workload: Workload, workdir: str) -> tuple[ExperimentStore | None, str | None]:
    if not workload.store:
        return None, None
    path = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir)
    return ExperimentStore(path), path


def _drop_store(store: ExperimentStore | None, path: str | None) -> None:
    if store is not None:
        store.close()
        shutil.rmtree(path)


def run_untraced(
    workload: Workload,
    seed: int,
    workdir: str,
    node_counts: Sequence[int] | None = None,
    gauge: SpeedGauge | None = None,
) -> dict:
    """Time one ``run_sweep`` call on the workload grid, then check it.

    ``call_mono`` is the ``time.monotonic()`` reading at the call, so the
    parent can measure set-up from the moment it started this process;
    ``setup_probe_s`` and ``setup_speed`` are the gauge's reading up to the
    call.  ``sweep_s`` is the call's time scaled by the gauge's reading over
    it, ``raw_sweep_s`` the time as measured.
    """
    config = sweep_config(workload, seed, node_counts)
    policies = line_up(workload, config)
    paper = tuple(default_policies(config, workload.system)) == workload.line_up
    store, path = _fresh_store(workload, workdir)
    try:
        setup = gauge.take() if gauge else UNGAUGED
        call_mono = time.monotonic()
        start = time.perf_counter()
        result = run_sweep(
            config,
            system=workload.system,
            rate=workload.rate,
            policies=None if paper else policies,
            workers=1,
            engine="vectorized",
            store=store,
        )
        raw_sweep_s = time.perf_counter() - start
        sweep = gauge.take() if gauge else UNGAUGED
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        _drop_store(store, path)
    expected = len(config.node_counts) * config.repetitions * len(policies)
    return {
        "call_mono": call_mono,
        "setup_probe_s": setup.probe_s,
        "setup_speed": setup.speed,
        "raw_sweep_s": raw_sweep_s,
        "sweep_s": sweep.scale(raw_sweep_s),
        "speed": sweep.speed,
        "peak_rss_mb": peak_rss_mb,
        **_summary(workload, result.records, expected),
    }


def run_traced(
    workload: Workload,
    seed: int,
    workdir: str,
    node_counts: Sequence[int] | None = None,
    gauge: SpeedGauge | None = None,
) -> dict:
    """Rebuild the same sweep through the traced mirror, then check it.

    The total is scaled like ``sweep_s``.  Every layer's seconds are scaled
    by the gauge's speed only: the ~1% of time spent in probes stays in the
    layer each probe interrupted.
    """
    config = sweep_config(workload, seed, node_counts)
    policies = line_up(workload, config)
    store, path = _fresh_store(workload, workdir)
    try:
        if gauge:
            gauge.take()
        records, layers, counts, raw_total_s = traced_sweep(
            workload, config, policies, store
        )
        sweep = gauge.take() if gauge else UNGAUGED
    finally:
        _drop_store(store, path)
    expected = len(config.node_counts) * config.repetitions * len(policies)
    return {
        "total_s": sweep.scale(raw_total_s),
        "layers": {name: seconds * sweep.speed for name, seconds in layers.items()},
        "counts": counts,
        **_summary(workload, records, expected),
    }
