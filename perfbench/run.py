"""Paper-grid sweep benchmark.

Usage::

    python3 perfbench/run.py --workload paper-sync [--seed 2012] \
        [--seconds 10] [--trace 0|1]

Run from the root of a checkout that holds ``src/repro``.  Every sample is
one closed-loop caller in a fresh interpreter (``child.py``), with one
worker and the vectorized engine, and no warm-up: a user pays for a fresh
deployment in every cell, so warm module caches must not flatter later
samples.  Samples run back to back for about ``--seconds`` and until at
least ``MIN_SAMPLES`` have finished.  Every timing is scaled to a machine of
fixed speed by the gauge in ``gauge.py``; the raw medians are printed too.

``--trace 0`` times the public ``run_sweep`` call and reports the
end-to-end metrics.  ``--trace 1`` alternates an untraced sample with the
traced mirror of the same sweep (``mirror.py``) and reports the per-layer
split; the two records digests must agree.

Every record is checked (``sample.record_failures``); at a seed pinned in
``pins.json`` the first sample's records digest must match too.  A failed
check counts against ``failed`` and makes the exit code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import COUNTS, END_TO_END, PER_LAYER, TIME_LAYERS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

#: Samples every untraced run finishes; the latency metrics average their
#: records, so they are a fixed function of the seed.
MIN_SAMPLES = 5
#: No sample starts after this many seconds of a run, and none runs past
#: ``HARD_LIMIT_S``, so a run always exits inside three minutes.
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0


class SampleError(RuntimeError):
    """A sample process crashed, timed out or printed no result."""


def _spawn(
    workload: Workload, seed: int, index: int, mode: str, deadline: float
) -> tuple[dict, float]:
    """Run one sample process; returns its result and its start time.

    The process gets one BLAS thread: a sample is one caller on one core,
    and on a two-core box OpenBLAS's default thread pool made samples
    slower and their timing depend on whatever else ran.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        workload.name,
        str(seed),
        str(index),
        mode,
        str(WORKDIR),
    ]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample {index} timed out") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise SampleError(
            f"{mode} sample {index} exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1]), spawned


class _Run:
    """Checks and tallies the broadcasts of every sample of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = self._last = time.monotonic()
        self.attempted = 0
        self.failed = 0
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        self.pinned = pins["digests"].get(workload.name, {}).get(str(seed))

    def more(self, index: int, minimum: int) -> bool:
        """Whether to start iteration ``index``.

        Past ``minimum`` iterations, one starts only while at least half of
        it fits in ``--seconds``, judged by the previous one, so a run
        lasts about ``--seconds`` on average.
        """
        now = time.monotonic()
        elapsed = now - self.start
        step = now - self._last
        self._last = now
        if elapsed >= START_LIMIT_S:
            return False
        return index < minimum or elapsed + step / 2 < self.seconds

    def sample(self, index: int, mode: str) -> dict | None:
        """One checked sample; ``None`` when the process itself failed.

        An untraced result gains ``setup_s``: seconds from starting the
        process to its ``run_sweep`` call, without the probes and at the
        speed the gauge read over them; ``raw_setup_s`` is the time as
        measured.
        """
        self.attempted += self.workload.broadcasts
        try:
            result, spawned = _spawn(
                self.workload, self.seed, index, mode, self.start + HARD_LIMIT_S
            )
        except SampleError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            self.failed += self.workload.broadcasts
            return None
        for failure in result["failures"]:
            print(f"FAILED {mode} sample {index}: {failure}", file=sys.stderr)
        self.failed += len(result["failures"])
        if index == 0 and self.pinned not in (None, result["digest"]):
            print(
                f"FAILED: records digest {result['digest']} != pinned {self.pinned} "
                f"at seed {self.seed}",
                file=sys.stderr,
            )
            self.failed += result["broadcasts"]
        if "call_mono" in result:
            result["raw_setup_s"] = result["call_mono"] - spawned
            result["setup_s"] = (
                result["raw_setup_s"] - result["setup_probe_s"]
            ) * result["setup_speed"]
        return result

    def digest_note(self, digest: str) -> str:
        if self.pinned is None:
            return f"records digest (sample 0) {digest}; none pinned at this seed"
        verdict = "matches" if self.pinned == digest else "DIFFERS FROM"
        return f"records digest (sample 0) {digest} {verdict} the pinned one"


def _highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    for percent in range(99, 49, -1):
        rank = int(len(ordered) * percent / 100)
        if len(ordered) - rank - 1 >= 10:
            return percent, ordered[rank]
    return None


def _untraced(run: _Run) -> dict[str, float]:
    workload = run.workload
    samples: list[dict] = []
    while run.more(len(samples), MIN_SAMPLES):
        result = run.sample(len(samples), "sweep")
        if result is None:
            break
        samples.append(result)
    if not samples:
        raise SampleError("no sample finished")
    latency_sum = dict.fromkeys(workload.line_up, 0)
    latency_n = dict.fromkeys(workload.line_up, 0)
    for result in samples[:MIN_SAMPLES]:
        for policy in workload.line_up:
            latency_sum[policy] += result["latency_sum"][policy]
            latency_n[policy] += result["latency_n"][policy]
    latency = {p: latency_sum[p] / latency_n[p] for p in workload.line_up}

    sweep_s = [result["sweep_s"] for result in samples]
    percentile = _highest_percentile(sweep_s)
    tail = (
        f"p{percentile[0]} {percentile[1]:.3f} s"
        if percentile
        else "no percentile above the median has 10 sweeps beyond it"
    )
    print(
        f"sweep_s: median {statistics.median(sweep_s):.3f} s over "
        f"{len(sweep_s)} sweeps; {tail}"
    )
    raw_sweep = statistics.median(result["raw_sweep_s"] for result in samples)
    raw_setup = statistics.median(result["raw_setup_s"] for result in samples)
    speeds = ", ".join(f"{result['speed']:.2f}" for result in samples)
    print(
        f"as measured: sweep median {raw_sweep:.3f} s, set-up median "
        f"{raw_setup:.3f} s; machine speed per sweep {speeds} of the reference"
    )
    print(
        f"latency (mean over the first {min(len(samples), MIN_SAMPLES)} sweeps): "
        + ", ".join(f"{p} {latency[p]:.3f}" for p in workload.line_up)
    )
    print(run.digest_note(samples[0]["digest"]))
    return {
        "sweep_s": statistics.median(sweep_s),
        "setup_s": statistics.median(result["setup_s"] for result in samples),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in samples),
        "latency.E-model": latency["E-model"],
        "latency.baseline": latency[workload.baseline],
    }


def _traced(run: _Run) -> dict[str, float]:
    pairs: list[tuple[dict, dict]] = []
    while run.more(len(pairs), 1):
        index = len(pairs)
        # Alternate which side goes first, so drift in machine speed does
        # not bias the overhead ratio.
        order = ("sweep", "mirror") if index % 2 == 0 else ("mirror", "sweep")
        done = {}
        for mode in order:
            done[mode] = run.sample(index, mode)
            if done[mode] is None:
                break
        plain, traced = done.get("sweep"), done.get("mirror")
        if plain is None or traced is None:
            break
        if plain["digest"] != traced["digest"]:
            print(
                f"FAILED: traced mirror digest {traced['digest']} != run_sweep "
                f"digest {plain['digest']} (sample {index})",
                file=sys.stderr,
            )
            run.failed += traced["broadcasts"]
        pairs.append((plain, traced))
    if not pairs:
        raise SampleError("no traced sample finished")
    layers = {
        name: statistics.median(traced["layers"][name] for _, traced in pairs)
        for name in (*TIME_LAYERS, "experiments.unattributed_s")
    }
    ratio = statistics.median(
        traced["total_s"] / plain["sweep_s"] for plain, traced in pairs
    )
    # Counts are a fixed function of the seed: take them from sample 0.
    counts = pairs[0][1]["counts"]
    print(
        f"traced {len(pairs)} sweeps; per-layer seconds are medians, "
        "counts are sample 0's"
    )
    print(run.digest_note(pairs[0][0]["digest"]))
    return {
        **layers,
        "trace.overhead_ratio": ratio,
        **{name: counts[name] for name in COUNTS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Paper-grid sweep benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rate = f" r={workload.rate}" if workload.system == "duty" else ""
    print(
        f"workload {workload.name}, seed {args.seed}: {workload.system}{rate}, "
        f"nodes {list(workload.node_counts)} x {workload.repetitions} rep, "
        f"line-up {', '.join(workload.line_up)}"
    )
    WORKDIR.mkdir(exist_ok=True)
    run = _Run(workload, args.seed, args.seconds)
    try:
        values = _traced(run) if args.trace else _untraced(run)
    except SampleError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(
        f"failed_frac {run.failed / run.attempted:.6g} "
        f"({run.failed} of {run.attempted} broadcasts failed a check)"
    )
    units = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
