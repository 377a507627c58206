"""BENCHMARK.json and the benchmark's output follow the benchmark contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.trace import Recorder
from perfbench.workloads import WORKLOADS, span_layers

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _raw_result(n=100):
    return {
        "latencies_ms": [float(i) for i in range(1, n + 1)],
        "attempted": n, "failed": 0, "op_count": n, "elapsed_s": 2.0, "wall_elapsed_s": 2.1,
        "stolen_s": 0.05, "time_scale": 1.0, "host_factor": 1.0, "probes": 5,
        "setup_samples_s": [1.0, 1.2, 1.1], "peak_rss_mb": 80.0,
        "ii_sum": 110, "mii_sum": 100, "cycles_sum": 5000,
    }


def test_every_end_to_end_metric_is_computed():
    values = run.end_to_end(_raw_result())
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in values
    assert values["setup_s"]["value"] == 1.1
    assert values["ops_per_s"]["value"] == 50.0
    assert values["latency_tail_ms"]["percentile"] == 90.0
    assert values["latency_tail_ms"]["value"] == pytest.approx(90.5, abs=0.01)
    assert values["ii_over_mii"]["value"] == 1.1


def test_span_layer_names_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(span_layers(Recorder(lambda: 0.0))) <= declared


def test_summary_line_schema():
    report = {
        "workload": "fig4_sweep", "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 1.5, "unit": "s"}},
    }
    line = run.summary_line([report])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 1.5, "unit": "s"}}
    both = run.summary_line([report, dict(report, workload="dist_sweep")])
    assert set(both["metrics"]) == {"fig4_sweep.setup_s", "dist_sweep.setup_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
