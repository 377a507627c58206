"""Scheduler performance benchmarks and the regression gate.

``repro bench`` times the scheduler hot paths on a fixed case matrix
(micro passes, DMS/IMS throughput, the wide-unroll scaling regime, and
one differential-oracle run covering codegen, the oracle and the
sequential reference),
writes the results as JSON, and compares runs against the committed
baseline ``BENCH_scheduler.json``.

Cross-machine comparability: every run first times a fixed pure-Python
*calibration* workload; each case is reported both in seconds and
*normalized* (case seconds / calibration seconds).  The CI gate compares
normalized values, so a uniformly slower runner does not trip it — only a
scheduler-relative regression does.

The committed baseline also carries ``seed_reference``: per-case wall
times of the pre-optimization scheduler measured interleaved on the same
host, from which the reported ``speedup_vs_seed`` numbers derive.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import BenchError

#: Schema version of the benchmark JSON.
#: v2: per-case ``search`` block (II, ii_attempts, budget_used,
#: restarts_per_success, futility_aborts) for scheduler-backed cases,
#: plus the explicit ``*_ladder`` scaling cases that pin the reference
#: search policy next to the adaptive default.
BENCH_SCHEMA = 2

#: Default baseline path (committed at the repo root).
BENCH_FILENAME = "BENCH_scheduler.json"

#: Default regression tolerance on normalized times (CI gate).
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchCase:
    """One benchmark: a setup builder returning a zero-arg timed thunk.

    ``build`` takes the run's II-search override (``None`` = each case's
    own default policy); cases that pin a policy, or that do not touch a
    scheduler, ignore it.
    """

    name: str
    group: str  # "micro" | "dms" | "ims" | "verify"
    describe: str
    build: Callable[[Optional[str]], Callable[[], object]]


def _scheduler_config(search: Optional[str]):
    from .config import DEFAULT_CONFIG

    return DEFAULT_CONFIG if search is None else DEFAULT_CONFIG.with_(search=search)


def _dms_thunk(
    kernel: str,
    kwargs: dict,
    unroll: int,
    topology: str,
    k: int,
    search: Optional[str] = None,
) -> Callable[[], object]:
    from .ir.opcodes import DEFAULT_LATENCIES
    from .ir.transforms import single_use_ddg, unroll_ddg
    from .machine import clustered_vliw
    from .scheduling import DistributedModuloScheduler
    from .workloads import make_kernel

    ddg = make_kernel(kernel, **kwargs).ddg
    if unroll > 1:
        ddg = unroll_ddg(ddg, unroll)
    ddg = single_use_ddg(ddg)
    machine = clustered_vliw(k, topology=topology)
    scheduler = DistributedModuloScheduler(
        machine, DEFAULT_LATENCIES, _scheduler_config(search)
    )
    return lambda: scheduler.schedule(ddg.copy())


def _ims_thunk(
    kernel: str, unroll: int, k: int, search: Optional[str] = None
) -> Callable[[], object]:
    from .ir.opcodes import DEFAULT_LATENCIES
    from .ir.transforms import unroll_ddg
    from .machine import unclustered_vliw
    from .scheduling import IterativeModuloScheduler
    from .workloads import make_kernel

    ddg = make_kernel(kernel).ddg
    if unroll > 1:
        ddg = unroll_ddg(ddg, unroll)
    scheduler = IterativeModuloScheduler(
        unclustered_vliw(k), DEFAULT_LATENCIES, _scheduler_config(search)
    )
    return lambda: scheduler.schedule(ddg.copy())


def _mii_thunk() -> Callable[[], object]:
    from .ir.opcodes import DEFAULT_LATENCIES
    from .machine import unclustered_vliw
    from .scheduling import compute_mii
    from .workloads import make_kernel

    ddg = make_kernel("lms_update", taps=5).ddg
    machine = unclustered_vliw(4)
    return lambda: compute_mii(ddg, machine, DEFAULT_LATENCIES)


def _transform_thunk() -> Callable[[], object]:
    from .ir.transforms import single_use_ddg, unroll_ddg
    from .workloads import make_kernel

    ddg = make_kernel("fir_filter", taps=10).ddg
    return lambda: single_use_ddg(unroll_ddg(ddg, 4))


def _verify_thunk() -> Callable[[], object]:
    from .api import CompilationRequest, Toolchain
    from .machine import clustered_vliw
    from .validate import oracle
    from .workloads import make_kernel

    request = CompilationRequest(
        loop=make_kernel("lms_update", taps=5),
        machine=clustered_vliw(8, topology="mesh"),
        unroll=2,
    )
    compiled = Toolchain.default().compile(request).compiled
    return lambda: oracle.verify_compiled(compiled)


CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "mii_lms", "micro", "MII bounds, lms_update", lambda search=None: _mii_thunk()
    ),
    BenchCase(
        "unroll_single_use_fir4",
        "micro",
        "unroll x4 + single-use, fir_filter",
        lambda search=None: _transform_thunk(),
    ),
    BenchCase(
        "ims_unroll8",
        "ims",
        "IMS, fir_filter x8, unclustered(4)",
        lambda search=None: _ims_thunk("fir_filter", 8, 4, search=search),
    ),
    BenchCase(
        "dms_narrow",
        "dms",
        "DMS, fir_filter(10) x4, 4-cluster ring",
        lambda search=None: _dms_thunk(
            "fir_filter", {"taps": 10}, 4, "ring", 4, search=search
        ),
    ),
    BenchCase(
        "dms_wide",
        "dms",
        "DMS, lms_update(5), 8-cluster ring",
        lambda search=None: _dms_thunk(
            "lms_update", {"taps": 5}, 1, "ring", 8, search=search
        ),
    ),
    BenchCase(
        "dms_unroll8",
        "dms",
        "DMS scaling, fir_filter x8, 4-cluster ring",
        lambda search=None: _dms_thunk(
            "fir_filter", {"taps": 8}, 8, "ring", 4, search=search
        ),
    ),
    BenchCase(
        "dms_unroll16",
        "dms",
        "DMS scaling, fir_filter x16, 8-cluster ring",
        lambda search=None: _dms_thunk(
            "fir_filter", {"taps": 8}, 16, "ring", 8, search=search
        ),
    ),
    # The same scaling cases pinned to the reference ladder policy, so a
    # run (and the CI gate) always measures the adaptive-vs-ladder delta
    # side by side regardless of the session default.
    BenchCase(
        "dms_unroll8_ladder",
        "dms",
        "DMS scaling, fir_filter x8, 4-cluster ring (ladder search pinned)",
        lambda search=None: _dms_thunk(
            "fir_filter", {"taps": 8}, 8, "ring", 4, search="ladder"
        ),
    ),
    BenchCase(
        "dms_unroll16_ladder",
        "dms",
        "DMS scaling, fir_filter x16, 8-cluster ring (ladder search pinned)",
        lambda search=None: _dms_thunk(
            "fir_filter", {"taps": 8}, 16, "ring", 8, search="ladder"
        ),
    ),
    BenchCase(
        "dms_mesh8",
        "dms",
        "DMS, lms_update(5) x2, 8-cluster mesh",
        lambda search=None: _dms_thunk(
            "lms_update", {"taps": 5}, 2, "mesh", 8, search=search
        ),
    ),
    BenchCase(
        "dms_crossbar8",
        "dms",
        "DMS, lms_update(5) x2, 8-cluster crossbar",
        lambda search=None: _dms_thunk(
            "lms_update", {"taps": 5}, 2, "crossbar", 8, search=search
        ),
    ),
    # The failing-rung path: surrogate loop 46 (stencil5, auto-unrolled
    # x5) on the 10-cluster ring fails seven attempts at II 2 and 3
    # before II 4 schedules, so chain planning against full Copy FUs,
    # ejection and chain dismantling dominate.
    BenchCase(
        "dms_failing_rungs",
        "dms",
        "DMS failing rungs, stencil5 x5 (surrogate loop 46), 10-cluster ring",
        lambda search=None: _dms_thunk("stencil5", {}, 5, "ring", 10, search=search),
    ),
    BenchCase(
        "verify_oracle",
        "verify",
        "differential oracle at full ramp, lms_update(5) x2, 8-cluster mesh",
        lambda search=None: _verify_thunk(),
    ),
)

CASE_NAMES: Tuple[str, ...] = tuple(case.name for case in CASES)


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload (dict/loop bound, like the
    scheduler); the unit all normalized numbers are expressed in."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(120_000):
            key = i % 512
            table[key] = table.get(key, 0) + i
            total += table[key]
        best = min(best, time.perf_counter() - start)
    return best


def _time_case(
    thunk: Callable[[], object], reps: int
) -> Tuple[float, float, object]:
    """(best, mean, last result) over *reps* timed runs (one warmup first)."""
    thunk()
    samples = []
    result: object = None
    for _ in range(reps):
        start = time.perf_counter()
        result = thunk()
        samples.append(time.perf_counter() - start)
    return min(samples), sum(samples) / len(samples), result


def _search_stats(result: object) -> Optional[Dict]:
    """II-search effort of a scheduler-backed case, or ``None``.

    ``restarts_per_success`` is the number of scheduling attempts the
    search executed for its one successful schedule — the direct measure
    of how much work failed rungs cost under the active policy.
    """
    stats = getattr(result, "stats", None)
    if stats is None or not hasattr(stats, "ii_attempts"):
        return None
    return {
        "ii": result.ii,
        "ii_attempts": stats.ii_attempts,
        "budget_used": stats.budget_used,
        "restarts_per_success": stats.restart_attempts,
        "futility_aborts": stats.futility_aborts,
    }


def run_bench(
    quick: bool = False,
    case_names: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    search: Optional[str] = None,
) -> Dict:
    """Run the benchmark matrix and return the result document.

    *search* overrides the II-search policy of every scheduler-backed
    case (``None`` keeps each case's own default; the ``*_ladder`` cases
    always pin the reference policy).
    """
    from .scheduling import SEARCH_POLICY_NAMES

    if search is not None and search not in SEARCH_POLICY_NAMES:
        raise BenchError(
            f"unknown search policy {search!r}; known: {list(SEARCH_POLICY_NAMES)}"
        )
    selected = list(CASES)
    if case_names is not None:
        wanted = set(case_names)
        unknown = wanted - set(CASE_NAMES)
        if unknown:
            raise BenchError(
                f"unknown bench cases {sorted(unknown)}; known: {list(CASE_NAMES)}"
            )
        selected = [case for case in CASES if case.name in wanted]
    reps = 3 if quick else 5
    cases: Dict[str, Dict] = {}
    calibrations: List[float] = []
    for case in selected:
        thunk = case.build(search)
        # Calibrate per case so normalization tracks machine-speed drift
        # over the course of the run (shared CI runners are not steady).
        calibration = calibrate()
        calibrations.append(calibration)
        best, mean, result = _time_case(thunk, reps)
        cases[case.name] = {
            "group": case.group,
            "describe": case.describe,
            "best_s": best,
            "mean_s": mean,
            "reps": reps,
            "calibration_s": calibration,
            "normalized": best / calibration,
            "normalized_mean": mean / calibration,
        }
        search_stats = _search_stats(result)
        if search_stats is not None:
            cases[case.name]["search"] = search_stats
        if progress is not None:
            progress(f"{case.name:<24} {1e3 * best:9.2f} ms")
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "search_override": search,
        "calibration_s": min(calibrations) if calibrations else 0.0,
        "cases": cases,
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
    }


@dataclass(frozen=True)
class Comparison:
    """Per-case outcome of a baseline comparison."""

    case: str
    status: str  # "ok" | "faster" | "regression" | "missing" | "unbaselined"
    ratio: Optional[float]  # current_normalized / baseline_normalized
    message: str


def compare_to_baseline(
    current: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[Comparison]:
    """Compare normalized times case-by-case against *baseline*.

    The current run's *best* normalized time is held against the
    baseline's *mean* normalized time (falling back to best when the
    baseline predates the mean field): best-vs-mean biases the gate
    against false alarms from run-to-run noise while still catching real
    slowdowns beyond *tolerance*.  Baseline cases absent from the current
    run are reported as ``missing`` (also a failure: silently dropping a
    benchmark must not pass the gate).  Current cases the baseline lacks
    are reported as ``unbaselined``: not a failure, but listed, so a new
    case that nothing gates yet is visible until the baseline records it.
    """
    results: List[Comparison] = []
    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    for name in sorted(base_cases):
        base_entry = base_cases[name]
        base_norm = base_entry.get("normalized_mean", base_entry.get("normalized"))
        cur = cur_cases.get(name)
        if cur is None:
            results.append(
                Comparison(name, "missing", None, "case absent from current run")
            )
            continue
        ratio = cur["normalized"] / base_norm
        if ratio > 1.0 + tolerance:
            status = "regression"
            message = (
                f"{100 * (ratio - 1):.0f}% slower than baseline "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
        elif ratio < 1.0 - tolerance:
            status = "faster"
            message = f"{100 * (1 - ratio):.0f}% faster than baseline"
        else:
            status = "ok"
            message = f"within tolerance ({100 * (ratio - 1):+.0f}%)"
        results.append(Comparison(name, status, ratio, message))
    for name in sorted(set(cur_cases) - set(base_cases)):
        results.append(
            Comparison(name, "unbaselined", None, "no baseline entry: not gated")
        )
    return results


def has_regression(results: Iterable[Comparison]) -> bool:
    return any(r.status in ("regression", "missing") for r in results)


def dms_speedups(doc: Dict) -> Dict[str, float]:
    """``case -> speedup_vs_seed`` for cases with a seed reference."""
    seed = doc.get("seed_reference", {})
    speedups = {}
    for name, entry in doc.get("cases", {}).items():
        ref = seed.get(name)
        if ref:
            speedups[name] = ref / entry["best_s"]
    return speedups


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(doc: Dict) -> str:
    """Human-readable table of one benchmark document."""
    lines = [
        f"{'case':<24} {'group':<6} {'best':>10} {'mean':>10} {'norm':>8} "
        f"{'II':>4} {'tries':>5}",
        "-" * 73,
    ]
    for name, entry in doc["cases"].items():
        search = entry.get("search") or {}
        ii = search.get("ii", "")
        tries = search.get("restarts_per_success", "")
        lines.append(
            f"{name:<24} {entry['group']:<6} "
            f"{1e3 * entry['best_s']:>8.2f}ms {1e3 * entry['mean_s']:>8.2f}ms "
            f"{entry['normalized']:>8.2f} {ii!s:>4} {tries!s:>5}"
        )
    lines.append(
        f"calibration {1e3 * doc['calibration_s']:.2f} ms on "
        f"{doc['meta']['platform']}"
    )
    speedups = dms_speedups(doc)
    if speedups:
        dms = [v for k, v in speedups.items() if k.startswith("dms")]
        lines.append(
            "speedup vs seed: "
            + ", ".join(f"{k} {v:.2f}x" for k, v in sorted(speedups.items()))
        )
        if dms:
            lines.append(f"DMS geomean speedup vs seed: {geomean(dms):.2f}x")
    return "\n".join(lines)


def profile_case(name: str, top: int = 20) -> str:
    """cProfile one case; return the top-N cumulative report."""
    import cProfile
    import io
    import pstats

    matching = [case for case in CASES if case.name == name]
    if not matching:
        raise BenchError(f"unknown bench case {name!r}; known: {list(CASE_NAMES)}")
    thunk = matching[0].build(None)
    thunk()  # warm caches so the profile shows steady state
    profiler = cProfile.Profile()
    profiler.enable()
    thunk()
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def load_baseline(path: str) -> Dict:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != BENCH_SCHEMA:
        raise BenchError(
            f"baseline {path!r} has schema {doc.get('schema')!r}, "
            f"expected {BENCH_SCHEMA}"
        )
    return doc


def write_json(doc: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main_bench(args) -> int:
    """Implementation of the ``repro bench`` CLI command."""
    if args.profile:
        try:
            print(profile_case(args.profile))
        except BenchError as err:
            print(str(err), file=sys.stderr)
            return 2
        return 0
    case_names = None
    if args.cases:
        case_names = [c for c in args.cases.split(",") if c]
    try:
        doc = run_bench(
            quick=args.quick,
            case_names=case_names,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
            search=args.search,
        )
    except BenchError as err:
        print(str(err), file=sys.stderr)
        return 2
    if args.baseline_carry:
        # Carry the seed-reference block and its note forward when
        # rewriting the committed baseline, so speedup-vs-seed reporting
        # survives.  Read raw (no schema check): carrying across a schema
        # bump is exactly when this matters.
        try:
            with open(args.baseline_carry) as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = {}
        for key in ("seed_reference", "seed_reference_note"):
            if key in previous:
                doc[key] = previous[key]
    print(render_table(doc))
    exit_code = 0
    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, BenchError) as err:
            print(f"cannot load baseline: {err}", file=sys.stderr)
            return 2
        results = compare_to_baseline(doc, baseline, args.tolerance)
        flaky = [
            r.case
            for r in results
            if r.status == "regression" and r.case in doc["cases"]
        ]
        if flaky:
            # One re-measure before failing: a case is a regression only
            # if it is slow twice (shared runners see >25% noise spikes).
            print(
                f"  re-measuring {len(flaky)} slow case(s): {', '.join(flaky)}",
                file=sys.stderr,
            )
            retry = run_bench(
                quick=args.quick, case_names=flaky, search=args.search
            )
            for name, entry in retry["cases"].items():
                if entry["normalized"] < doc["cases"][name]["normalized"]:
                    doc["cases"][name] = entry
            results = compare_to_baseline(doc, baseline, args.tolerance)
        doc["unbaselined"] = [
            r.case for r in results if r.status == "unbaselined"
        ]
        print()
        for result in results:
            flag = {"regression": "FAIL", "missing": "FAIL", "unbaselined": "NEW"}.get(
                result.status, "ok"
            )
            print(f"  [{flag:>4}] {result.case:<24} {result.message}")
        if has_regression(results):
            print("benchmark gate: REGRESSION", file=sys.stderr)
            exit_code = 1
        else:
            print("benchmark gate: ok")
    if args.out:
        write_json(doc, args.out)
        print(f"# wrote {args.out}", file=sys.stderr)
    return exit_code
