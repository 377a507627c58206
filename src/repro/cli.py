"""Command-line interface: ``repro <command>``.

Commands:

* ``info``          — machine/paper overview;
* ``suite-stats``   — shape statistics of the Perfect Club surrogate;
* ``schedule``      — compile one named kernel and print its assembly;
* ``target``        — list/show/validate declarative target descriptions
  (builtin names or TOML/JSON machine files);
* ``batch``         — batch-compile kernels through the session API
  (process pool + on-disk cache);
* ``bench``         — scheduler performance benchmarks; writes/compares
  ``BENCH_scheduler.json`` with a tolerance gate (used by CI);
* ``verify``        — differential execution oracle: execute the emitted
  VLIW programs value-by-value and bit-compare against the sequential
  reference, across kernels x topologies x cluster counts;
* ``fuzz``          — schedule-mutation fuzzing: random loops plus
  systematic schedule mutations, cross-examined by the checker, the
  timing simulator and the oracle (used by CI with a fixed seed);
* ``serve``         — long-lived compilation service: warm process pool,
  in-memory LRU over the disk cache, request dedup, priority admission
  control and live ``/metrics`` (``schedule --remote`` is its client);
* ``fig4|fig5|fig6``— regenerate a paper figure over the surrogate suite;
* ``backtracking``  — the IMS-vs-DMS backtracking comparison;
* ``all-figures``   — everything above in one sweep.

Figures accept ``--loops N`` to subsample the 1258-loop suite (a full run
takes tens of minutes in pure Python), ``--workers N`` to fan the sweep
across processes, and ``--csv DIR`` to persist data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .api import BatchCompiler, CompilationRequest, Toolchain, compile_many
from .config import DEFAULT_CONFIG
from .experiments import (
    FigureData,
    SweepConfig,
    backtracking_report,
    figure4,
    figure5,
    figure6,
    moves_report,
    pass_timing_figure,
    run_sweep,
)
from .machine import clustered_vliw, unclustered_vliw
from .codegen import assembly_for
from .workloads import (
    KERNELS,
    PERFECT_CLUB_LOOP_COUNT,
    make_kernel,
    perfect_club_surrogate,
    suite_stats,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed Modulo Scheduling (Fernandes, Llosa & Topham, "
            "HPCA 1999) - reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="overview of machines and experiments")

    stats = sub.add_parser("suite-stats", help="surrogate suite statistics")
    _suite_args(stats)

    sched = sub.add_parser("schedule", help="compile one kernel, print assembly")
    sched.add_argument("kernel", choices=sorted(KERNELS))
    sched.add_argument("--clusters", type=int, default=4)
    sched.add_argument("--unclustered", action="store_true")
    sched.add_argument(
        "--target",
        type=str,
        default=None,
        help="target name or machine file (overrides --clusters/--unclustered)",
    )
    sched.add_argument("--ramp", action="store_true", help="show prologue/epilogue")
    sched.add_argument(
        "--timings", action="store_true", help="print per-pass wall-clock times"
    )
    sched.add_argument(
        "--remote",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="compile via a running `repro serve` daemon instead of locally",
    )
    _search_arg(sched)

    target = sub.add_parser(
        "target", help="list/show/validate declarative target descriptions"
    )
    target.add_argument("action", choices=("list", "show", "validate"))
    target.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered target name or .toml/.json machine file",
    )

    batch = sub.add_parser(
        "batch", help="batch-compile kernels via the session API"
    )
    batch.add_argument(
        "--kernels",
        type=str,
        default="all",
        help="comma-separated kernel names (default: all)",
    )
    batch.add_argument(
        "--clusters",
        type=str,
        default="1,2,3,4,5,6,7,8,9,10",
        help="comma-separated cluster counts",
    )
    batch.add_argument(
        "--target",
        type=str,
        default=None,
        help=(
            "comma-separated target names or machine files "
            "(replaces the --clusters machine sweep)"
        ),
    )
    batch.add_argument(
        "--workers", type=int, default=None, help="process-pool width (default: serial)"
    )
    batch.add_argument(
        "--cache", type=str, default=None, help="on-disk compilation cache directory"
    )
    batch.add_argument(
        "--coordinator",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="run cache misses as one distributed sweep on this "
        "'repro serve' coordinator instead of compiling locally",
    )
    batch.add_argument(
        "--clear-cache", action="store_true", help="empty the cache before compiling"
    )
    batch.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="write one JSON report per job (JSON lines)",
    )
    batch.add_argument(
        "--timings", action="store_true", help="print the per-pass timing figure"
    )
    _search_arg(batch)

    for name in ("fig4", "fig5", "fig6", "backtracking", "moves", "all-figures"):
        fig = sub.add_parser(name, help=f"regenerate {name}")
        _suite_args(fig)
        _search_arg(fig)
        fig.add_argument(
            "--clusters",
            type=str,
            default="1,2,3,4,5,6,7,8,9,10",
            help="comma-separated cluster counts",
        )
        fig.add_argument("--csv", type=str, default=None, help="output directory")
        fig.add_argument(
            "--runs-out", type=str, default=None, help="persist runs as JSONL"
        )
        fig.add_argument(
            "--workers",
            type=int,
            default=None,
            help="process-pool width for the sweep (default: serial)",
        )

    bench = sub.add_parser(
        "bench", help="scheduler performance benchmarks + regression gate"
    )
    bench.add_argument(
        "--quick", action="store_true", help="3 reps per case instead of 5"
    )
    bench.add_argument(
        "--cases", type=str, default=None, help="comma-separated case subset"
    )
    bench.add_argument(
        "--out", type=str, default=None, help="write results JSON to this path"
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    bench.add_argument(
        "--baseline",
        type=str,
        default="BENCH_scheduler.json",
        help="baseline JSON for --check (default: BENCH_scheduler.json)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative tolerance on normalized times (default: 0.25)",
    )
    bench.add_argument(
        "--baseline-carry",
        type=str,
        default=None,
        help="carry seed_reference forward from this JSON when rewriting "
        "the baseline",
    )
    bench.add_argument(
        "--profile",
        type=str,
        default=None,
        metavar="CASE",
        help="print cProfile top-20 cumulative for one case and exit",
    )
    _search_arg(
        bench,
        help=(
            "override the II-search policy of scheduler-backed cases "
            "(default: each case's own policy; *_ladder cases stay pinned)"
        ),
    )

    verify = sub.add_parser(
        "verify", help="differential execution oracle over the kernel suite"
    )
    verify.add_argument(
        "--kernels",
        type=str,
        default="all",
        help="comma-separated kernel names (default: all)",
    )
    verify.add_argument(
        "--topologies",
        type=str,
        default="ring,linear,mesh,torus,crossbar",
        help="comma-separated topology kinds",
    )
    verify.add_argument(
        "--clusters", type=str, default="2,4,8", help="comma-separated counts"
    )
    verify.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="kernel iterations to execute (default: fill + steady + drain)",
    )
    verify.add_argument(
        "--short-ramp",
        action="store_true",
        help="also execute each program with ramp listings shorter than "
        "the stage count (the short-trip-count path)",
    )
    verify.add_argument(
        "--unclustered",
        action="store_true",
        help="also verify the IMS/unclustered reference machines",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for the compile phase (default: serial)",
    )
    verify.add_argument(
        "--coordinator",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="distribute the compile phase as one sweep on this "
        "'repro serve' coordinator (execution stays local)",
    )
    _search_arg(verify)

    fuzz = sub.add_parser(
        "fuzz", help="schedule-mutation fuzzing (checker vs simulator vs oracle)"
    )
    fuzz.add_argument("--seed", type=int, default=1999)
    fuzz.add_argument(
        "--trials", type=int, default=200, help="max random loops to fuzz"
    )
    fuzz.add_argument(
        "--mutants", type=int, default=10, help="mutants per valid schedule"
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop after this many seconds (for CI smoke budgets)",
    )
    fuzz.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip counterexample minimization",
    )
    fuzz.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the JSON campaign report (and counterexamples) here",
    )

    storage = sub.add_parser(
        "storage", help="register/queue storage requirements (paper section 1)"
    )
    _suite_args(storage)
    _search_arg(storage)
    storage.add_argument("--clusters", type=str, default="1,2,4,6,8,10")
    storage.add_argument("--csv", type=str, default=None)

    ablation = sub.add_parser("ablation", help="run one design ablation")
    from .experiments import ABLATIONS

    ablation.add_argument("name", choices=sorted(ABLATIONS))
    _suite_args(ablation)
    _search_arg(ablation)
    ablation.add_argument("--clusters", type=str, default="4,6,8,10")
    ablation.add_argument("--csv", type=str, default=None)

    baseline = sub.add_parser(
        "baseline", help="DMS vs two-phase partition+schedule"
    )
    _suite_args(baseline)
    _search_arg(baseline)
    baseline.add_argument("--clusters", type=str, default="4,6,8,10")
    baseline.add_argument("--csv", type=str, default=None)

    sensitivity = sub.add_parser(
        "sensitivity", help="figure-4 shape under alternative latency models"
    )
    _suite_args(sensitivity)
    _search_arg(sensitivity)
    sensitivity.add_argument("--clusters", type=str, default="2,4,8")
    sensitivity.add_argument("--csv", type=str, default=None)

    serve = sub.add_parser(
        "serve",
        help="long-lived compilation service (warm pool, LRU, metrics)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (default 0: ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="warm process-pool width (0 = in-process threads, for tests)",
    )
    serve.add_argument(
        "--lru-capacity",
        type=int,
        default=256,
        help="in-memory LRU entry bound (default: 256)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission-control queue depth (default: 64)",
    )
    serve.add_argument(
        "--cache",
        type=str,
        default=None,
        help="on-disk cache directory behind the in-memory LRU",
    )
    serve.add_argument(
        "--port-file",
        type=str,
        default=None,
        help="write the bound host:port here (for ephemeral ports)",
    )
    serve.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the final metrics snapshot JSON here on drain",
    )
    serve.add_argument(
        "--journal",
        type=str,
        default=None,
        help="persistent job-journal file: wait=false submissions are "
             "replayed after a crash-restart against the same path",
    )
    serve.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="arm deterministic fault injection (e.g. "
             "'worker-crash:times=3;conn-reset:times=2'); test/chaos use",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for probabilistic fault rules (default: 0)",
    )

    worker = sub.add_parser(
        "worker",
        help="pull-based sweep worker for a 'repro serve' coordinator",
    )
    worker.add_argument(
        "--coordinator",
        type=str,
        required=True,
        metavar="HOST:PORT",
        help="the coordinator daemon to pull chunks from",
    )
    worker.add_argument(
        "--name",
        type=str,
        default=None,
        help="worker name for leases/metrics (default: w<pid>)",
    )
    worker.add_argument(
        "--cache",
        type=str,
        default=None,
        help="local on-disk compilation cache directory (share the "
        "coordinator's to skip redundant compiles)",
    )
    worker.add_argument(
        "--max-chunk", type=int, default=32, help="largest chunk claimed"
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between polls when no work is granted (default: 0.5)",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after this many seconds without work (default: run "
        "until interrupted)",
    )
    worker.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="arm deterministic fault injection (e.g. "
        "'worker-vanish:times=1'); test/chaos use",
    )
    worker.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for probabilistic fault rules (default: 0)",
    )
    worker.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the worker's final stats JSON here on exit",
    )

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis (invariant-enforcing AST rules)",
    )
    lint.add_argument(
        "--root", type=str, default=".",
        help="repository root holding pyproject.toml (default: cwd)",
    )
    lint.add_argument(
        "--rules", type=str, default=None,
        help="comma-separated rule ids to run (default: all); "
             "'help' lists every rule with its description",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); sarif emits a SARIF 2.1.0 "
             "document for GitHub code scanning",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files changed vs HEAD (git diff + untracked); "
             "cross-file analysis still indexes the whole tree",
    )
    lint.add_argument(
        "--callgraph-cache", type=str, default=None,
        help="JSON file to reload/save the project call-graph index "
             "(keyed on a source hash; stale caches rebuild silently)",
    )
    lint.add_argument(
        "--baseline", type=str, default=None,
        help="baseline file (default: [tool.repro.lint] baseline, "
             "else LINT_baseline.json)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather every current finding",
    )
    lint.add_argument(
        "--fail-on-new", action="store_true",
        help="exit 1 when any finding outside the baseline exists (CI gate)",
    )
    lint.add_argument(
        "--out", type=str, default=None,
        help="also write the JSON report to this path",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="text format: also list baselined (grandfathered) findings",
    )
    return parser


def _search_arg(parser: argparse.ArgumentParser, help: Optional[str] = None) -> None:
    parser.add_argument(
        "--search",
        type=str,
        default=None,
        choices=("ladder", "adaptive", "portfolio"),
        help=help or "II-search policy (default: the scheduler default, adaptive)",
    )


def _scheduler_config(args: argparse.Namespace):
    """The scheduler config implied by a command's ``--search`` flag."""
    search = getattr(args, "search", None)
    if search is None:
        return DEFAULT_CONFIG
    return DEFAULT_CONFIG.with_(search=search)


def _suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loops",
        type=int,
        default=PERFECT_CLUB_LOOP_COUNT,
        help="number of suite loops (default: the paper's 1258)",
    )
    parser.add_argument("--seed", type=int, default=1999)


def _info() -> str:
    lines = [
        "Distributed Modulo Scheduling (DMS) reproduction",
        "paper: Fernandes, Llosa & Topham, HPCA-5, 1999",
        "",
        "machines: clustered(k) = k x {1 L/S, 1 Add, 1 Mul, 1 Copy} on a",
        "          bi-directional ring; unclustered(k) = monolithic 3k FUs",
        "targets:  `repro target list` — declarative targets over any",
        "          registered topology (ring/linear/mesh/torus/crossbar/graph)",
        "schedulers: IMS (Rau 1996) for unclustered, DMS for clustered",
        "",
        "experiments:",
        "  fig4  - %% loops with II increase due to partitioning (1-10 clusters)",
        "  fig5  - relative execution cycles vs useful FUs (3-30)",
        "  fig6  - aggregate IPC vs useful FUs",
        "  backtracking - IMS vs DMS ejections per placement",
        "",
        f"kernels: {', '.join(sorted(KERNELS))}",
    ]
    return "\n".join(lines)


def _schedule_command(args: argparse.Namespace) -> int:
    from .errors import TargetError
    from .targets import resolve_target

    loop = make_kernel(args.kernel)
    equivalent_k: Optional[int] = args.clusters
    if args.target is not None:
        try:
            machine = resolve_target(args.target)
        except TargetError as err:
            print(str(err), file=sys.stderr)
            return 2
        equivalent_k = None
    elif args.unclustered:
        machine = unclustered_vliw(args.clusters)
    else:
        machine = clustered_vliw(args.clusters)
    request = CompilationRequest(
        loop=loop,
        machine=machine,
        equivalent_k=equivalent_k,
        config=_scheduler_config(args),
    )
    if args.remote is not None:
        return _schedule_remote(args, request)
    report = Toolchain.default().compile(request)
    compiled = report.compiled
    result = compiled.result
    print(result.summary())
    print(
        f"unroll={compiled.unroll_factor} cycles={compiled.cycles} "
        f"ipc={compiled.ipc:.2f}"
    )
    if args.timings:
        for name, seconds in report.pass_seconds().items():
            print(f"  {name:<12} {1e3 * seconds:8.2f} ms")
    print(assembly_for(result, compiled.allocation, show_ramp=args.ramp))
    return 0


def _schedule_remote(args: argparse.Namespace, request) -> int:
    """``repro schedule --remote host:port``: compile on a daemon."""
    from .errors import ServiceError
    from .service import ServiceClient

    client = ServiceClient(args.remote)
    try:
        result = client.compile_request(request, assembly=True)
    except ServiceError as err:
        print(str(err), file=sys.stderr)
        return 2
    doc = result["report"]
    print(
        f"{doc['loop']}: {str(doc['scheduler']).upper()} on {doc['machine']} "
        f"II={doc['ii']} (MII={doc['mii']}) "
        f"[remote: {result.get('served_from', '?')}]"
    )
    print(
        f"unroll={doc['unroll']} cycles={doc['cycles']} ipc={doc['ipc']:.2f}"
    )
    if args.timings:
        for name, ms in doc.get("timings_ms", {}).items():
            print(f"  {name:<12} {ms:8.2f} ms")
    if args.ramp:
        print(
            "# --ramp is a local renderer option; remote assembly shows "
            "the steady-state kernel",
            file=sys.stderr,
        )
    print(result.get("assembly", ""))
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    import asyncio

    from .service import run_service

    asyncio.run(
        run_service(
            host=args.host,
            port=args.port,
            workers=args.workers,
            lru_capacity=args.lru_capacity,
            disk_cache=args.cache,
            max_queue_depth=args.max_queue,
            port_file=args.port_file,
            metrics_out=args.metrics_out,
            journal=args.journal,
            fault_spec=args.faults,
            fault_seed=args.fault_seed,
        )
    )
    return 0


def _worker_command(args: argparse.Namespace) -> int:
    import json as json_module

    from . import faults
    from .service.worker import SweepWorker

    if args.faults:
        faults.install(
            faults.FaultPlan.from_spec(args.faults, seed=args.fault_seed)
        )
    sweep_worker = SweepWorker(
        args.coordinator,
        name=args.name,
        cache=args.cache,
        max_chunk=args.max_chunk,
        poll_interval=args.poll,
        idle_exit=args.idle_exit,
    )
    try:
        stats = sweep_worker.run()
    except KeyboardInterrupt:
        stats = dict(sweep_worker.stats, worker=sweep_worker.name)
    line = json_module.dumps(stats, sort_keys=True)
    print(f"repro worker exiting: {line}", file=sys.stderr)
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(line + "\n")
    return 0


def _lint_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        load_config,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        update_baseline,
    )
    from .analysis.rules import META_RULE_IDS, get_rule, registered_rules
    from .errors import LintError

    try:
        config = load_config(Path(args.root))
        if args.baseline is not None:
            config.baseline = args.baseline
        if args.rules == "help":
            for rule_id in registered_rules():
                print(f"{rule_id:<22} {get_rule(rule_id).description}")
            for rule_id in META_RULE_IDS:
                print(f"{rule_id:<22} (engine-level finding)")
            return 0
        only = None
        if args.rules is not None:
            only = [part.strip() for part in args.rules.split(",") if part.strip()]
        if args.update_baseline and only is not None:
            print(
                "repro lint: --update-baseline needs the full rule set "
                "(a narrowed run would drop other rules' baseline entries)",
                file=sys.stderr,
            )
            return 2
        files = None
        if args.changed:
            if args.update_baseline:
                print(
                    "repro lint: --update-baseline needs a full run "
                    "(--changed only sees a subset of the tree)",
                    file=sys.stderr,
                )
                return 2
            files = _changed_files(Path(args.root))
        cache = (
            Path(args.callgraph_cache) if args.callgraph_cache else None
        )
        result = run_lint(
            config, only=only, files=files, callgraph_cache=cache
        )
    except LintError as err:
        print(f"repro lint: {err}", file=sys.stderr)
        return 2
    if args.update_baseline:
        path = update_baseline(config, result)
        print(
            f"baseline updated: {path} "
            f"({len(result.findings)} findings grandfathered)"
        )
        return 0
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_json(result) + "\n")
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    if args.fail_on_new and not result.ok:
        return 1
    return 0


def _changed_files(root) -> list:
    """Repo-relative paths changed vs HEAD, plus untracked files.

    Outside a git checkout (or without git) the subset is empty — the
    run reports 0 files rather than silently falling back to the whole
    tree, so ``--changed`` in a broken environment is loud, not slow.
    """
    import subprocess

    changed = []
    for argv in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            out = subprocess.run(
                argv, cwd=str(root), capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout
        except (OSError, subprocess.SubprocessError):
            continue
        changed.extend(line.strip() for line in out.splitlines() if line.strip())
    return sorted(set(changed))


def _batch_command(args: argparse.Namespace) -> int:
    if args.kernels == "all":
        names = sorted(KERNELS)
    else:
        names = [n for n in args.kernels.split(",") if n]
        unknown = sorted(set(names) - set(KERNELS))
        if unknown:
            print(f"unknown kernels: {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.target is not None:
        from .errors import TargetError
        from .targets import resolve_target

        try:
            machines = [
                resolve_target(ref) for ref in args.target.split(",") if ref
            ]
        except TargetError as err:
            print(str(err), file=sys.stderr)
            return 2
        requests = [
            CompilationRequest(
                loop=make_kernel(name),
                machine=machine,
                allocate=False,
                validate=True,
                config=_scheduler_config(args),
            )
            for name in names
            for machine in machines
        ]
        shape = f"{len(names)} kernels x {len(machines)} targets"
    else:
        cluster_counts = [int(c) for c in args.clusters.split(",") if c]
        requests = [
            CompilationRequest(
                loop=make_kernel(name),
                machine=clustered_vliw(k),
                equivalent_k=k,
                allocate=False,
                validate=True,
                config=_scheduler_config(args),
            )
            for name in names
            for k in cluster_counts
        ]
        shape = f"{len(names)} kernels x {len(cluster_counts)} cluster counts"
    compiler = BatchCompiler(
        cache=args.cache,
        workers=args.workers,
        coordinator=args.coordinator,
    )
    if args.clear_cache and compiler.cache is not None:
        removed = compiler.cache.clear()
        print(f"# cleared {removed} cache entries", file=sys.stderr)
    started = time.time()
    reports = compiler.compile_many(
        requests, progress=lambda msg: print(f"  {msg}", file=sys.stderr)
    )
    elapsed = time.time() - started
    for report in reports:
        print(report.summary())
    hits = sum(1 for r in reports if r.cache_hit)
    print(
        f"# {len(reports)} jobs ({shape}) in {elapsed:.2f}s, "
        f"{hits} cache hits",
        file=sys.stderr,
    )
    if compiler.cache is not None:
        print(f"# {compiler.cache.stats.summary()}", file=sys.stderr)
    if args.timings:
        cold = [r for r in reports if not r.cache_hit]
        if cold:
            print(pass_timing_figure(cold).render_table())
        else:
            print("# all jobs cached; no cold timings to report", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            for report in reports:
                handle.write(json.dumps(report.to_dict(), sort_keys=True))
                handle.write("\n")
        print(f"# wrote {args.json_out}", file=sys.stderr)
    return 0


def _target_command(args: argparse.Namespace) -> int:
    from .errors import TargetError
    from .targets import resolve_target, target_names, target_to_toml, get_target

    if args.action == "list":
        for name in target_names():
            target = get_target(name)
            print(
                f"{name:<16} {target.n_clusters:>2} x "
                f"{target.topology_kind:<8} {target.useful_fus:>3} useful FUs"
                f"  {target.description}"
            )
        return 0
    if args.name is None:
        print(f"target {args.action} needs a target name or file", file=sys.stderr)
        return 2
    try:
        target = resolve_target(args.name)
    except TargetError as err:
        print(f"invalid target: {err}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(f"# {target.describe()}")
        print(f"# topology: {target.topology!r}")
        print(target_to_toml(target), end="")
        return 0
    # validate: the spec itself was checked at load; report derived facts
    # a machine-file author most often gets wrong.
    from .ir.opcodes import FUKind, USEFUL_FU_KINDS

    problems = []
    for kind in USEFUL_FU_KINDS:
        if not target.supports(kind):
            problems.append(f"no {kind.value} unit anywhere on the machine")
    if target.is_clustered and target.fu_count(FUKind.COPY) == 0:
        problems.append(
            "clustered machine without any copy FU: DMS cannot insert "
            "chains or single-use copies"
        )
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if problems:
        return 2
    print(
        f"ok: {target.name} ({target.n_clusters} clusters, "
        f"{target.topology_kind} topology, {target.useful_fus} useful FUs)"
    )
    return 0


_FIGURES = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "backtracking": backtracking_report,
    "moves": moves_report,
}


def _figures_command(args: argparse.Namespace) -> int:
    cluster_counts = [int(c) for c in args.clusters.split(",") if c]
    loops = perfect_club_surrogate(args.loops, seed=args.seed)
    started = time.time()
    runs = run_sweep(
        loops,
        SweepConfig(
            cluster_counts=cluster_counts,
            workers=getattr(args, "workers", None),
            scheduler_config=_scheduler_config(args),
        ),
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    elapsed = time.time() - started
    print(
        f"# {len(loops)} loops x {len(cluster_counts)} cluster counts "
        f"({elapsed:.1f}s)",
        file=sys.stderr,
    )
    if getattr(args, "runs_out", None):
        from .experiments import dump_runs

        dump_runs(runs, args.runs_out)
        print(f"# wrote {args.runs_out}", file=sys.stderr)
    names = (
        list(_FIGURES) if args.command == "all-figures" else [args.command]
    )
    figures: List[FigureData] = [_FIGURES[name](runs) for name in names]
    for figure in figures:
        print(figure.render_table())
        print()
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{figure.name}.csv")
            figure.to_csv(path)
            print(f"# wrote {path}", file=sys.stderr)
    return 0


def _emit_figure(figure: FigureData, csv_dir: Optional[str]) -> None:
    print(figure.render_table())
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        path = os.path.join(csv_dir, f"{figure.name}.csv")
        figure.to_csv(path)
        print(f"# wrote {path}", file=sys.stderr)


def _verify_command(args: argparse.Namespace) -> int:
    from .machine import clustered_vliw, unclustered_vliw
    from .machine.topology import topology_kinds
    from .validate import verify_many

    if args.kernels == "all":
        names = sorted(KERNELS)
    else:
        names = [n for n in args.kernels.split(",") if n]
        unknown = sorted(set(names) - set(KERNELS))
        if unknown:
            print(f"unknown kernels: {', '.join(unknown)}", file=sys.stderr)
            return 2
    topologies = [t for t in args.topologies.split(",") if t]
    unknown = sorted(set(topologies) - set(topology_kinds()))
    if unknown:
        print(f"unknown topologies: {', '.join(unknown)}", file=sys.stderr)
        return 2
    cluster_counts = [int(c) for c in args.clusters.split(",") if c]

    machines = [
        clustered_vliw(k, topology=topology)
        for topology in topologies
        for k in cluster_counts
    ]
    if args.unclustered:
        machines.extend(unclustered_vliw(k) for k in cluster_counts)

    started = time.time()
    # One toolchain and one batch over the whole (kernel, machine) matrix
    # instead of a fresh Toolchain per program: the compile phase shares
    # every per-session cache and, with --workers, fans across processes;
    # each run depth below then re-verifies its already-compiled loop.
    from .api import compile_many

    loops = {name: make_kernel(name) for name in names}
    jobs = [(name, machine) for name in names for machine in machines]
    requests = [
        CompilationRequest(
            loop=loops[name], machine=machine, config=_scheduler_config(args)
        )
        for name, machine in jobs
    ]
    compiled_reports = compile_many(
        requests,
        toolchain=Toolchain.default(),
        workers=args.workers,
        coordinator=args.coordinator,
        progress=(
            (lambda msg: print(f"  {msg}", file=sys.stderr))
            if args.coordinator
            else None
        ),
    )
    # The oracle phase fans across the same --workers pool the compile
    # phase used: each job is one (compiled, iterations) execution.
    verify_jobs = []
    labels = []
    for (name, machine), compile_report in zip(jobs, compiled_reports):
        compiled = compile_report.compiled
        verify_jobs.append((compiled, args.iterations))
        labels.append((name, machine, ""))
        if args.short_ramp:
            # A run shorter than the pipeline depth (ramp listings
            # degenerate: no steady-state kernel issue).
            short = max(1, compiled.result.stage_count - 1)
            verify_jobs.append((compiled, short))
            labels.append((name, machine, " [short ramp]"))
    verify_reports = verify_many(verify_jobs, workers=args.workers)
    programs = 0
    failures = 0
    for (name, machine, suffix), report in zip(labels, verify_reports):
        programs += 1
        if report.ok:
            continue
        failures += 1
        for problem in report.all_problems[:4]:
            print(
                f"FAIL {name} on {machine.name}{suffix}: {problem}",
                file=sys.stderr,
            )
    elapsed = time.time() - started
    print(
        f"verified {programs} program(s): {len(names)} kernel(s) x "
        f"{len(machines)} machine(s) in {elapsed:.1f}s -> "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def _fuzz_command(args: argparse.Namespace) -> int:
    from .validate import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        mutants_per_trial=args.mutants,
        time_budget=args.time_budget,
        minimize=not args.no_minimize,
    )
    report = run_fuzz(
        config, progress=lambda msg: print(f"  {msg}", file=sys.stderr)
    )
    print(report.summary())
    for disagreement in report.disagreements:
        print(
            f"DISAGREEMENT trial {disagreement.trial} "
            f"({disagreement.loop_name} on {disagreement.machine}, "
            f"{disagreement.mutation} {disagreement.mutation_detail}): "
            + "; ".join(disagreement.violations),
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _storage_command(args: argparse.Namespace) -> int:
    from .experiments import storage_report, storage_sweep

    cluster_counts = [int(c) for c in args.clusters.split(",") if c]
    loops = perfect_club_surrogate(args.loops, seed=args.seed)
    points = storage_sweep(loops, cluster_counts, config=_scheduler_config(args))
    _emit_figure(storage_report(points), args.csv)
    return 0


def _ablation_command(args: argparse.Namespace) -> int:
    from .experiments import ABLATIONS

    cluster_counts = [int(c) for c in args.clusters.split(",") if c]
    loops = perfect_club_surrogate(args.loops, seed=args.seed)
    figure = ABLATIONS[args.name](
        loops, cluster_counts, config=_scheduler_config(args)
    )
    _emit_figure(figure, args.csv)
    return 0


def _baseline_command(args: argparse.Namespace) -> int:
    from .experiments import two_phase_comparison

    cluster_counts = [int(c) for c in args.clusters.split(",") if c]
    loops = perfect_club_surrogate(args.loops, seed=args.seed)
    figure = two_phase_comparison(
        loops, cluster_counts, config=_scheduler_config(args)
    )
    _emit_figure(figure, args.csv)
    return 0


def _sensitivity_command(args: argparse.Namespace) -> int:
    from .experiments import latency_sensitivity

    cluster_counts = [int(c) for c in args.clusters.split(",") if c]
    loops = perfect_club_surrogate(args.loops, seed=args.seed)
    figure = latency_sensitivity(
        loops, cluster_counts, config=_scheduler_config(args)
    )
    _emit_figure(figure, args.csv)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "info":
        print(_info())
        return 0
    if args.command == "suite-stats":
        loops = perfect_club_surrogate(args.loops, seed=args.seed)
        stats = suite_stats(loops)
        print(f"loops:            {stats.n_loops}")
        print(
            f"vectorizable:     {stats.n_vectorizable} "
            f"({100 * stats.vectorizable_fraction:.1f}%)"
        )
        print(f"ops total/mean:   {stats.total_ops} / {stats.mean_ops:.1f}")
        print(f"largest loop:     {stats.max_ops} ops")
        print(f"mean trip count:  {stats.mean_trip:.0f}")
        mix = ", ".join(f"{k}={v:.2f}" for k, v in stats.fu_mix.items())
        print(f"op mix:           {mix}")
        return 0
    if args.command == "schedule":
        return _schedule_command(args)
    if args.command == "target":
        return _target_command(args)
    if args.command == "batch":
        return _batch_command(args)
    if args.command == "bench":
        from .bench import main_bench

        return main_bench(args)
    if args.command == "verify":
        return _verify_command(args)
    if args.command == "fuzz":
        return _fuzz_command(args)
    if args.command == "storage":
        return _storage_command(args)
    if args.command == "ablation":
        return _ablation_command(args)
    if args.command == "baseline":
        return _baseline_command(args)
    if args.command == "sensitivity":
        return _sensitivity_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "worker":
        return _worker_command(args)
    if args.command == "lint":
        return _lint_command(args)
    return _figures_command(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
