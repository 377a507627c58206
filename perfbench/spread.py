"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10

For every end-to-end metric it prints the median, the inter-quartile
range as a share of the median (``statistics.quantiles(values, n=4)``)
and that share against the metric's bound in ``BENCHMARK.json``.  A
metric is steady when its spread is below a third of its bound.  The
per-seed results are saved to ``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def seeds_of(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--record", type=Path, default=None,
                        help="merge the per-metric quartiles into this JSON file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print(f"seed {seed}: correct={last['correct']} " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in last["metrics"].items()
        ), flush=True)

    print(f"\n{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}  steady")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        share = spread(values)
        bound = bounds.get(name)
        steady = "" if bound is None else ("yes" if share < bound / 3 else "NO")
        print(f"{name:<40} {statistics.median(values):>14.5g} {share:>8.4f} "
              f"{bound if bound is not None else '':>6}  {steady}")
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "q1": quartiles[0], "median": quartiles[1], "q3": quartiles[2],
            "spread": share, "unit": runs[0]["metrics"][name]["unit"],
        }
    if args.record is not None:
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        recorded[args.workload] = {
            "seeds": [run["seed"] for run in runs],
            "run_seconds": spec["run_seconds"],
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "metrics": summary,
        }
        args.record.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
