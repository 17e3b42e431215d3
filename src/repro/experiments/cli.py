"""Command-line interface: figures, tables, and scenario sweeps.

Examples
--------
Regenerate Figure 3 at the quick scale and print it as a text table::

    mlbs-experiments figure3

Regenerate every figure at the paper's full scale and write CSVs::

    mlbs-experiments all --scale paper --csv-dir results/

Run a duty-cycle sweep on a non-uniform deployment scenario (the default
target is ``sweep``; records print as CSV and are bit-identical for any
``--workers`` value)::

    mlbs-experiments --scenario clustered --engine vectorized --workers 2
    mlbs-experiments --scenario ring --duty-model two-tier --rate 50

Compare every policy across all registered scenarios::

    mlbs-experiments scenarios

Exercise the §VI robustness axis — a single lossy sweep, or the full
reliability figure (latency + retransmissions vs loss probability, with
its claim table)::

    mlbs-experiments --loss 0.2 --engine vectorized
    mlbs-experiments reliability --loss 0.0,0.1,0.3

Run the multi-source workload — a single sweep with ``k`` concurrent
messages, or the full multisource figure (makespan latency + total energy
vs ``k``, with its claim table)::

    mlbs-experiments --sources 4 --source-placement spread
    mlbs-experiments multisource --sources 1,2,4

Persist sweeps in a content-addressed experiment store: the first run
populates it, reruns load cached cells (``store: N cells cached, 0 to
simulate``), and extended grids only pay for the delta.  Inspect, prune or
dump the store with the ``store`` target::

    mlbs-experiments sweep --store results/store
    mlbs-experiments figure4 --store results/store
    mlbs-experiments store stats --store results/store
    mlbs-experiments store export --store results/store --format csv
    mlbs-experiments store gc --store results/store

Run the approximation-ratio study — every policy's latency divided by the
exact solver's certified optimum on small instances, checked against the
proved bounds::

    mlbs-experiments ratio
    mlbs-experiments ratio --system sync --solver exact

The ``claims`` (§V-C), ``reliability``, ``multisource`` and ``ratio``
targets print a claim table and exit with code 1 if any claim fails.

Distribute a sweep over a worker fleet with the ``fabric`` target: one
coordinator leases the grid's missing cells out over HTTP, any number of
workers (on any machine that can reach it) claim, simulate and post them
back, and the records land in the shared store — bit-identical to a local
run (see docs/fabric.md)::

    mlbs-experiments fabric serve --store results/store --port 8765
    mlbs-experiments fabric work --url http://127.0.0.1:8765
    mlbs-experiments fabric status --url http://127.0.0.1:8765

Watch any of it live: ``--trace`` makes a sweep (or a serving coordinator)
append every telemetry event to a JSONL file, and the ``monitor`` target
renders a refreshing dashboard from a store, a live trace file and/or a
fabric coordinator URL (``--telemetry`` on ``fabric serve`` also exposes a
``/metrics`` JSON endpoint — see docs/telemetry.md)::

    mlbs-experiments sweep --store results/store --trace results/sweep.jsonl
    mlbs-experiments monitor --store results/store --trace results/sweep.jsonl
    mlbs-experiments fabric serve --store results/store --telemetry
    mlbs-experiments monitor --url http://127.0.0.1:8765

Discover the registered workloads and solver tiers::

    mlbs-experiments --list-scenarios
    mlbs-experiments --list-duty-models
    mlbs-experiments --list-solvers

The same entry point is reachable with ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from repro.dutycycle.models import duty_model_names, list_duty_models
from repro.experiments import figures as figures_mod
from repro.experiments import tables as tables_mod
from repro.experiments.config import (
    PAPER_SWEEP,
    QUICK_SWEEP,
    RATIO_SWEEP,
    SweepConfig,
    sweep_from_env,
)
from repro.experiments.report import (
    ClaimCheck,
    claims_to_text,
    multisource_claims,
    ratio_claims,
    reliability_claims,
    store_summary_text,
    summary_claims,
)
from repro.experiments.runner import SweepResult, run_sweep, sweep_cells
from repro.fabric import (
    DEFAULT_LEASE_TTL,
    FabricCoordinator,
    FabricHTTPServer,
    FabricWorker,
    HttpTransport,
    TransportError,
)
from repro.network.sources import placement_names
from repro.obs import (
    EVENT_BUS,
    CallbackSink,
    Event,
    JsonlTraceSink,
    SweepMonitor,
    SweepStarted,
)
from repro.scenarios import list_scenarios, scenario_names
from repro.sim.broadcast import ENGINE_BACKENDS
from repro.sim.links import link_model_names
from repro.solvers import solver_catalog, solver_names
from repro.store import ExperimentStore, open_store, store_backend_names
from repro.utils.format import to_csv

__all__ = ["main", "build_parser"]

_FIGURES = {
    "figure3": figures_mod.figure3,
    "figure4": figures_mod.figure4,
    "figure5": figures_mod.figure5,
    "figure6": figures_mod.figure6,
    "figure7": figures_mod.figure7,
}
_TABLES = {
    "table2": tables_mod.table2,
    "table3": tables_mod.table3,
    "table4": tables_mod.table4,
}


def _parse_node_counts(text: str) -> tuple[int, ...]:
    """Parse ``--nodes "50,100"`` with a clean usage error on bad input."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not counts:
        raise argparse.ArgumentTypeError("at least one node count is required")
    return counts


def _parse_loss(text: str) -> tuple[float, ...]:
    """Parse ``--loss "0.1"`` or ``--loss "0.0,0.1,0.3"`` (reliability target)."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated probabilities, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("at least one loss probability is required")
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        raise argparse.ArgumentTypeError(f"loss probabilities must be in [0, 1]: {bad}")
    return values


def _parse_sources(text: str) -> tuple[int, ...]:
    """Parse ``--sources "4"`` or ``--sources "1,2,4"`` (multisource target)."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("at least one source count is required")
    bad = [v for v in values if v < 1]
    if bad:
        raise argparse.ArgumentTypeError(f"source counts must be >= 1: {bad}")
    return values


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="mlbs-experiments",
        description=(
            "Regenerate the tables and figures of 'Minimum Latency Broadcasting "
            "with Conflict Awareness in WSNs' (ICPP 2012), or sweep any "
            "registered deployment scenario / duty-cycle model."
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="sweep",
        choices=[
            *_FIGURES,
            *_TABLES,
            "claims",
            "scenarios",
            "reliability",
            "multisource",
            "ratio",
            "sweep",
            "store",
            "fabric",
            "monitor",
            "all",
        ],
        help=(
            "which figure/table to regenerate; 'sweep' (the default) runs one "
            "sweep and prints its records as CSV; 'scenarios' compares the "
            "policies across deployment scenarios; 'reliability' sweeps the "
            "per-link loss probability (latency + retransmissions per policy); "
            "'multisource' sweeps the concurrent-message count (makespan + "
            "energy per policy); 'ratio' runs the approximation-ratio study "
            "(observed latency / exact optimum vs the proved bounds, exit "
            "code 1 if a ratio claim fails); 'store' manages a persistent "
            "experiment store (see the 'action' positional); 'fabric' runs a "
            "distributed sweep over a coordinator/worker fleet (see the "
            "'action' positional and docs/fabric.md); 'monitor' renders a "
            "refreshing dashboard from --store, --trace and/or --url (see "
            "docs/telemetry.md); 'all' covers the paper's figures, tables "
            "and claims"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        choices=["stats", "gc", "export", "serve", "work", "status"],
        help=(
            "subcommand of the 'store' target — 'stats' summarises the cached "
            "cells, 'gc' prunes unreachable entries (dangling rows, orphan "
            "shards, old schema versions), 'export' dumps every cached record "
            "(--format, --output) — or of the 'fabric' target: 'serve' runs "
            "the coordinator for one sweep grid until every cell is in the "
            "store, 'work' runs one worker against a coordinator --url, "
            "'status' prints a coordinator's live status JSON"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "paper"],
        default=None,
        help="sweep scale (default: REPRO_BENCH_SCALE or 'quick')",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override the number of deployments per node count",
    )
    parser.add_argument(
        "--nodes",
        type=_parse_node_counts,
        default=None,
        metavar="N1,N2,...",
        help="override the node counts of the scale (comma-separated)",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write each result as CSV into this directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel worker processes for the sweeps (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINE_BACKENDS),
        default=None,
        help="simulation backend (default: reference; all are bit-identical)",
    )
    parser.add_argument(
        "--loss",
        type=_parse_loss,
        default=None,
        metavar="P[,P,...]",
        help=(
            "per-link delivery failure probability for the 'sweep' and "
            "'scenarios' targets (implies --link-model independent-loss); the "
            "'reliability' target accepts a comma-separated list of "
            "probabilities to sweep (default: 0.0,0.1,0.2,0.3)"
        ),
    )
    parser.add_argument(
        "--link-model",
        choices=link_model_names(),
        default=None,
        help="delivery model (default: reliable; see docs/reliability.md)",
    )
    parser.add_argument(
        "--sources",
        type=_parse_sources,
        default=None,
        metavar="K[,K,...]",
        help=(
            "number of concurrent broadcast messages for the 'sweep' and "
            "'scenarios' targets (default: 1, the paper's single source); the "
            "'multisource' target accepts a comma-separated list of source "
            "counts to sweep (default: 1,2,4)"
        ),
    )
    parser.add_argument(
        "--source-placement",
        choices=placement_names(),
        default=None,
        help=(
            "placement strategy for the extra sources of a multi-source run "
            "(default: random; see docs/workloads.md)"
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default=None,
        help="deployment scenario (default: uniform; see --list-scenarios)",
    )
    parser.add_argument(
        "--duty-model",
        choices=duty_model_names(),
        default=None,
        help="per-node duty-cycle model (default: uniform; see --list-duty-models)",
    )
    parser.add_argument(
        "--system",
        choices=["sync", "duty"],
        default="duty",
        help="system model for the 'sweep' and 'scenarios' targets (default: duty)",
    )
    parser.add_argument(
        "--rate",
        type=int,
        default=10,
        help="cycle rate r for the 'sweep' and 'scenarios' targets (default: 10)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "persistent experiment store directory: sweeps load cached cells "
            "from it and write simulated cells back, so reruns and grid "
            "extensions only pay for the delta (see docs/store.md)"
        ),
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "consult the store before simulating (default); --no-resume "
            "forces a full re-simulation that refreshes the cached cells"
        ),
    )
    parser.add_argument(
        "--format",
        choices=store_backend_names(),
        default="jsonl",
        help="record format of 'store export' (default: jsonl)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write 'store export' to this file instead of stdout",
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="coordinator base URL for 'fabric work' and 'fabric status'",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of 'fabric serve' (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="port of 'fabric serve' (default: 0 = pick a free port)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help=(
            "seconds before an unheartbeated fabric lease expires and its "
            f"cell is requeued (default: {DEFAULT_LEASE_TTL:g})"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        metavar="N",
        help=(
            "fabric attempts per cell before it is quarantined as a poison "
            "cell (default: 5)"
        ),
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help=(
            "how long 'fabric serve' keeps answering after the grid is done, "
            "so polling workers see a clean 'done' instead of a vanished "
            "coordinator (default: 3)"
        ),
    )
    parser.add_argument(
        "--status-file",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "'fabric serve'/'fabric status': also write the coordinator "
            "status JSON to this file"
        ),
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append every telemetry event as one JSON line to this file: "
            "'sweep' and 'fabric serve' write it while they run, 'monitor' "
            "follows it live (see docs/telemetry.md)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "'fabric serve': also publish the coordinator's metrics registry "
            "as a /metrics JSON endpoint"
        ),
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period of the 'monitor' target (default: 1)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help=(
            "render N 'monitor' frames and exit (default: refresh until "
            "interrupted)"
        ),
    )
    parser.add_argument(
        "--worker-name",
        default=None,
        metavar="NAME",
        help="worker identity reported by 'fabric work' (default: host-pid)",
    )
    parser.add_argument(
        "--solver",
        choices=solver_names(),
        default=None,
        help=(
            "solver tier added to the policy line-up (default: heuristic, "
            "the paper's E-model already in every line-up; 'ratio' defaults "
            "to exact; see --list-solvers and docs/solvers.md)"
        ),
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered deployment scenarios and exit",
    )
    parser.add_argument(
        "--list-duty-models",
        action="store_true",
        help="print the registered duty-cycle models and exit",
    )
    parser.add_argument(
        "--list-solvers",
        action="store_true",
        help="print the registered solver tiers and exit",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    if args.target == "ratio":
        # The ratio study needs instances small enough for the exact tier,
        # so it starts from its own preset rather than the sweep scales
        # (--nodes / --solver still override it).
        config = RATIO_SWEEP
    elif args.scale == "paper":
        config = PAPER_SWEEP
    elif args.scale == "quick":
        config = QUICK_SWEEP
    else:
        config = sweep_from_env()
    if args.repetitions is not None:
        config = config.with_repetitions(args.repetitions)
    if args.nodes is not None:
        config = dataclasses.replace(config, node_counts=args.nodes)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    if args.engine is not None:
        config = dataclasses.replace(config, engine=args.engine)
    if args.scenario is not None:
        config = dataclasses.replace(config, scenario=args.scenario)
    if args.duty_model is not None:
        config = dataclasses.replace(config, duty_model=args.duty_model)
    if args.link_model is not None:
        config = dataclasses.replace(config, link_model=args.link_model)
    # A single --loss value configures the sweep itself; the 'reliability'
    # target instead sweeps its (possibly plural) probabilities one by one.
    if args.loss is not None and args.target != "reliability":
        config = config.with_loss(args.loss[0])
    if args.source_placement is not None:
        config = dataclasses.replace(config, source_placement=args.source_placement)
    # Same split for --sources: a single value configures the sweep; the
    # 'multisource' target sweeps its (possibly plural) counts one by one.
    if args.sources is not None and args.target != "multisource":
        config = dataclasses.replace(config, n_sources=args.sources[0])
    if args.solver is not None:
        config = dataclasses.replace(config, solver=args.solver)
    return config


def _format_catalog(title: str, entries: list[tuple[str, str, dict]]) -> str:
    lines = [title]
    width = max((len(name) for name, _, _ in entries), default=0)
    for name, summary, defaults in entries:
        lines.append(f"  {name:<{width}}  {summary}")
        if defaults:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
            lines.append(f"  {'':<{width}}  defaults: {rendered}")
    return "\n".join(lines)


def _emit(name: str, text: str, csv: str | None, csv_dir: Path | None) -> None:
    print(text)
    print()
    if csv_dir is not None and csv is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        path = csv_dir / f"{name}.csv"
        path.write_text(csv)
        print(f"[wrote {path}]")


def _emit_claims(
    name: str,
    checks: list[ClaimCheck],
    csv_dir: Path | None,
    figure: figures_mod.FigureResult | None = None,
    context: str = "",
) -> int:
    """Print ``figure`` (if any) with its claim table; 1 if a claim fails."""
    held = sum(1 for check in checks if check.holds)
    text = f"{claims_to_text(checks)}\n{name}: {held}/{len(checks)} claims hold{context}"
    if figure is not None:
        text = f"{figure.to_text()}\n\n{text}"
    _emit(name, text, None if figure is None else figure.to_csv(), csv_dir)
    return 0 if held == len(checks) else 1


def _write_status(status: dict, path: Path | None) -> None:
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")


def _status_line(status: dict) -> str:
    counts = status["counts"]
    return (
        f"fabric: {counts['completed']}/{status['total']} cells done "
        f"(pending {counts['pending']}, leased {counts['leased']}, "
        f"quarantined {counts['quarantined']}); "
        f"{len(status['workers'])} worker(s) seen"
    )


def _run_fabric(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``fabric serve|work|status`` actions (exit code as documented)."""
    if args.action == "serve":
        if args.store is None:
            parser.error("'fabric serve' requires --store PATH (the shared store)")
        config = _config_from_args(args)
        cells = sweep_cells(config, system=args.system, rate=args.rate)
        trace_sink = (
            EVENT_BUS.attach(JsonlTraceSink(args.trace))
            if args.trace is not None
            else None
        )
        try:
            with ExperimentStore(args.store) as store:
                coordinator = FabricCoordinator(
                    cells,
                    store=store,
                    resume=args.resume,
                    lease_ttl=args.lease_ttl,
                    max_attempts=args.max_attempts,
                )
                with FabricHTTPServer(
                    coordinator,
                    host=args.host,
                    port=args.port,
                    expose_metrics=args.telemetry,
                ) as server:
                    print(
                        f"fabric serve: {server.url} ({len(cells)} cells)", flush=True
                    )
                    if args.telemetry:
                        print(
                            f"fabric serve: metrics at {server.url}/metrics",
                            flush=True,
                        )
                    last = ""
                    while True:
                        coordinator.tick()
                        status = coordinator.status()
                        line = _status_line(status)
                        if line != last:
                            print(line, file=sys.stderr, flush=True)
                            last = line
                        counts = status["counts"]
                        if counts["pending"] == 0 and counts["leased"] == 0:
                            # Grace period: workers poll every couple of
                            # seconds, so answering a little longer turns
                            # their last claim into a clean "done" instead
                            # of a dead socket.
                            time.sleep(max(args.linger, 0.0))
                            break
                        time.sleep(0.2)
                status = coordinator.status()
                _write_status(status, args.status_file)
                quarantined = coordinator.quarantined
        finally:
            if trace_sink is not None:
                EVENT_BUS.detach(trace_sink)
                trace_sink.close()
                print(
                    f"fabric serve: {trace_sink.written} events -> {args.trace}",
                    file=sys.stderr,
                    flush=True,
                )
        if quarantined:
            for index, reason in sorted(quarantined.items()):
                print(f"fabric: cell {index} quarantined: {reason}", file=sys.stderr)
            return 1
        print(_status_line(status), flush=True)
        return 0

    if args.url is None:
        parser.error(f"'fabric {args.action}' requires --url (the coordinator)")
    transport = HttpTransport(args.url)
    try:
        if args.action == "status":
            status = transport.request("status", {})
            _write_status(status, args.status_file)
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        name = args.worker_name or f"{os.uname().nodename}-{os.getpid()}"
        worker = FabricWorker(transport, name=name)
        stats = worker.run()
        print(
            f"fabric work: {name} completed {stats.completed} cell(s) "
            f"({stats.claims} claims, {stats.duplicates} duplicates, "
            f"{stats.rejected} rejected, {stats.abandoned} abandoned, "
            f"{stats.transport_errors} transport errors)"
        )
        return 0
    except TransportError as error:
        print(f"fabric {args.action}: {error}", file=sys.stderr)
        return 1
    finally:
        transport.close()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # The paper-reproduction targets keep the paper's labels and claim
    # thresholds, which are only meaningful on the paper's workload (uniform
    # deployments, reliable links); the scenario and loss axes belong to the
    # 'sweep', 'scenarios' and 'reliability' targets.
    non_paper = [
        flag
        for flag, value in (
            ("--scenario", args.scenario),
            ("--duty-model", args.duty_model),
        )
        if value not in (None, "uniform")
    ]
    # --loss 0.0 configures exactly the paper's reliable model, so it is as
    # paper-safe as --link-model reliable; --sources 1 likewise selects the
    # paper's single-source broadcast.
    if args.loss is not None and any(value > 0.0 for value in args.loss):
        non_paper.append("--loss")
    if args.link_model not in (None, "reliable"):
        non_paper.append("--link-model")
    if args.sources is not None and any(value > 1 for value in args.sources):
        non_paper.append("--sources")
    # --source-placement random is the default strategy (and a no-op at the
    # paper's n_sources=1), so only a non-default choice is non-paper.
    if args.source_placement not in (None, "random"):
        non_paper.append("--source-placement")
    # --solver heuristic is the default tier of every line-up, so only a
    # non-default tier changes the sweep away from the paper's workload.
    if args.solver not in (None, "heuristic"):
        non_paper.append("--solver")
    workload_targets = (
        "sweep",
        "scenarios",
        "reliability",
        "multisource",
        "ratio",
        "fabric",
        "monitor",
    )
    if non_paper and args.target not in workload_targets:
        *head, last = (repr(target) for target in workload_targets)
        targets = f"{', '.join(head)} and {last}"
        parser.error(
            f"{'/'.join(non_paper)} only applies to the {targets} targets; "
            f"{args.target!r} reproduces the paper's reliable uniform workload"
        )
    if (
        args.loss is not None
        and len(args.loss) != 1
        and args.target != "reliability"
    ):
        parser.error(
            "--loss takes a single probability for the 'sweep', 'scenarios' "
            "and 'multisource' targets; a comma-separated list selects the "
            "points of the 'reliability' target"
        )
    if (
        args.sources is not None
        and len(args.sources) != 1
        and args.target != "multisource"
    ):
        parser.error(
            "--sources takes a single count for the 'sweep', 'scenarios' and "
            "'reliability' targets; a comma-separated list selects the points "
            "of the 'multisource' target"
        )

    store_actions = ("stats", "gc", "export")
    fabric_actions = ("serve", "work", "status")
    if args.action is not None and args.target not in ("store", "fabric"):
        parser.error(
            "the stats/gc/export action only applies to the 'store' target, "
            "and serve/work/status to the 'fabric' target"
        )
    if args.target == "fabric":
        if args.action not in fabric_actions:
            parser.error(
                "the 'fabric' target requires an action: serve, work or status"
            )
        return _run_fabric(args, parser)
    if args.target == "monitor":
        if args.store is None and args.trace is None and args.url is None:
            parser.error(
                "the 'monitor' target needs at least one feed: --store PATH, "
                "--trace PATH and/or --url URL"
            )
        monitor_store = open_store(args.store)
        try:
            monitor = SweepMonitor(
                store=monitor_store, trace=args.trace, url=args.url
            )
            return monitor.watch(interval=args.interval, frames=args.frames)
        finally:
            if monitor_store is not None:
                monitor_store.close()
    if args.target == "store":
        if args.store is None:
            parser.error("the 'store' target requires --store PATH")
        if args.action not in store_actions:
            parser.error("the 'store' target requires an action: stats, gc or export")
        with ExperimentStore(args.store) as target_store:
            if args.action == "stats":
                print(store_summary_text(target_store))
            elif args.action == "gc":
                removed = target_store.gc()
                print(
                    f"gc: removed {removed.total} items "
                    f"(dangling rows {removed.dangling_rows}, "
                    f"orphan shards {removed.orphan_shards}, "
                    f"stale-schema cells {removed.stale_schema_cells}, "
                    f"temp files {removed.temp_files}); "
                    f"{removed.in_flight_temp_files} in-flight file(s) "
                    "left for their writer"
                )
            else:
                text = target_store.export(args.format)
                if args.output is not None:
                    args.output.parent.mkdir(parents=True, exist_ok=True)
                    args.output.write_text(text)
                    print(f"[wrote {args.output}]")
                else:
                    print(text, end="")
        return 0

    if args.list_scenarios or args.list_duty_models or args.list_solvers:
        if args.list_scenarios:
            print(
                _format_catalog(
                    "Registered deployment scenarios (--scenario):",
                    [(s.name, s.summary, dict(s.defaults)) for s in list_scenarios()],
                )
            )
        if args.list_duty_models:
            print(
                _format_catalog(
                    "Registered duty-cycle models (--duty-model):",
                    [(m.name, m.summary, dict(m.defaults)) for m in list_duty_models()],
                )
            )
        if args.list_solvers:
            print(
                _format_catalog(
                    "Registered solver tiers (--solver):",
                    [(name, summary, {}) for name, summary in solver_catalog()],
                )
            )
        return 0

    config = _config_from_args(args)
    store = open_store(args.store)

    def _store_split_line(event: Event) -> None:
        if isinstance(event, SweepStarted):
            print(
                f"store: {event.cached_cells} cells cached, "
                f"{event.missing_cells} to simulate",
                file=sys.stderr,
            )

    targets = (
        [args.target]
        if args.target != "all"
        else [*_FIGURES, *_TABLES, "claims"]
    )
    fig_cache: dict[str, figures_mod.FigureResult] = {}
    exit_code = 0

    try:
        for target in targets:
            if target in _FIGURES:
                result = _FIGURES[target](config, store=store, resume=args.resume)
                fig_cache[target] = result
                _emit(target, result.to_text(), result.to_csv(), args.csv_dir)
            elif target in _TABLES:
                table = _TABLES[target]()
                _emit(target, table.to_text(), None, args.csv_dir)
            elif target == "scenarios":
                result = figures_mod.figure_scenarios(
                    config,
                    system=args.system,
                    rate=args.rate,
                    store=store,
                    resume=args.resume,
                )
                _emit(target, result.to_text(), result.to_csv(), args.csv_dir)
            elif target == "reliability":
                result = figures_mod.figure_reliability(
                    config,
                    loss_probabilities=args.loss,
                    system=args.system,
                    rate=args.rate,
                    store=store,
                    resume=args.resume,
                )
                exit_code |= _emit_claims(
                    target, reliability_claims(result), args.csv_dir, result
                )
            elif target == "multisource":
                result = figures_mod.figure_multisource(
                    config,
                    source_counts=args.sources,
                    system=args.system,
                    rate=args.rate,
                    store=store,
                    resume=args.resume,
                )
                exit_code |= _emit_claims(
                    target, multisource_claims(result), args.csv_dir, result
                )
            elif target == "ratio":
                result = figures_mod.figure_ratio(
                    config,
                    system=args.system,
                    rate=args.rate,
                    store=store,
                    resume=args.resume,
                )
                exit_code |= _emit_claims(
                    target,
                    ratio_claims(result),
                    args.csv_dir,
                    result,
                    f" (solver={config.solver} system={args.system})",
                )
            elif target == "sweep":
                trace_sink = (
                    EVENT_BUS.attach(JsonlTraceSink(args.trace))
                    if args.trace is not None
                    else None
                )
                split_sink = (
                    EVENT_BUS.attach(CallbackSink(_store_split_line))
                    if store is not None
                    else None
                )
                try:
                    sweep = run_sweep(
                        config,
                        system=args.system,
                        rate=args.rate,
                        store=store,
                        resume=args.resume,
                    )
                finally:
                    if split_sink is not None:
                        EVENT_BUS.detach(split_sink)
                    if trace_sink is not None:
                        EVENT_BUS.detach(trace_sink)
                        trace_sink.close()
                csv = to_csv(SweepResult.ROW_HEADERS, sweep.to_rows())
                header = (
                    f"sweep: scenario={config.scenario} duty_model={config.duty_model} "
                    f"link_model={config.link_model} loss={config.loss_probability} "
                    f"sources={config.n_sources} placement={config.source_placement} "
                    f"system={sweep.system} rate={sweep.rate} engine={config.engine} "
                    f"records={len(sweep.records)}"
                )
                if store is not None:
                    total = sweep.cache_hits + sweep.cache_misses
                    cached = 100.0 * sweep.cache_hits / total if total else 0.0
                    header += (
                        f"\nstore: {sweep.cache_hits} hits / "
                        f"{sweep.cache_misses} misses ({cached:.0f}% cached)"
                    )
                if trace_sink is not None:
                    header += (
                        f"\ntrace: {trace_sink.written} events -> {args.trace}"
                    )
                _emit(target, f"{header}\n{csv.rstrip()}", csv, args.csv_dir)
            elif target == "claims":
                fig3 = fig_cache.get("figure3") or figures_mod.figure3(
                    config, store=store, resume=args.resume
                )
                fig4 = fig_cache.get("figure4") or figures_mod.figure4(
                    config, store=store, resume=args.resume
                )
                fig6 = fig_cache.get("figure6") or figures_mod.figure6(
                    config, store=store, resume=args.resume
                )
                exit_code |= _emit_claims(
                    target, summary_claims(fig3, fig4, fig6), args.csv_dir
                )
    finally:
        if store is not None:
            store.close()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
