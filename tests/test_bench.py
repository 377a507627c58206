"""Tests for the scheduler benchmark harness and its regression gate."""

import json
import os

from repro.bench import (
    BENCH_SCHEMA,
    CASE_NAMES,
    Comparison,
    compare_to_baseline,
    dms_speedups,
    geomean,
    has_regression,
    load_baseline,
    profile_case,
    render_table,
    run_bench,
    write_json,
)
from repro.cli import main
from repro.errors import BenchError


def test_bench_error_sits_in_the_taxonomy():
    """Bad bench requests are ReproErrors — caught at the CLI boundary
    like every other domain failure, never a bare ValueError."""
    from repro.errors import ReproError

    assert issubclass(BenchError, ReproError)


def make_doc(cases):
    return {
        "schema": BENCH_SCHEMA,
        "calibration_s": 0.01,
        "cases": cases,
        "meta": {"platform": "test", "python": "3.x"},
    }


def entry(norm, norm_mean=None, best=0.001):
    return {
        "group": "dms",
        "describe": "",
        "best_s": best,
        "mean_s": best,
        "reps": 1,
        "normalized": norm,
        "normalized_mean": norm_mean if norm_mean is not None else norm,
    }


class TestCompare:
    def test_within_tolerance_ok(self):
        base = make_doc({"a": entry(1.0)})
        cur = make_doc({"a": entry(1.2)})
        (result,) = compare_to_baseline(cur, base, tolerance=0.25)
        assert result.status == "ok"
        assert not has_regression([result])

    def test_regression_detected(self):
        base = make_doc({"a": entry(1.0)})
        cur = make_doc({"a": entry(1.3)})
        (result,) = compare_to_baseline(cur, base, tolerance=0.25)
        assert result.status == "regression"
        assert has_regression([result])

    def test_faster_flagged(self):
        base = make_doc({"a": entry(1.0)})
        cur = make_doc({"a": entry(0.5)})
        (result,) = compare_to_baseline(cur, base, tolerance=0.25)
        assert result.status == "faster"

    def test_missing_case_fails(self):
        base = make_doc({"a": entry(1.0), "b": entry(1.0)})
        cur = make_doc({"a": entry(1.0)})
        results = compare_to_baseline(cur, base)
        assert [r.status for r in results] == ["ok", "missing"]
        assert has_regression(results)

    def test_compares_best_against_baseline_mean(self):
        # baseline best 1.0 but mean 1.4: a current best of 1.3 is within
        # 25% of the mean anchor and must pass.
        base = make_doc({"a": entry(1.0, norm_mean=1.4)})
        cur = make_doc({"a": entry(1.3)})
        (result,) = compare_to_baseline(cur, base, tolerance=0.25)
        assert result.status == "ok"

    def test_extra_current_case_listed_unbaselined(self):
        """A case the baseline lacks is listed, not gated: it neither
        fails the gate nor disappears from the report."""
        base = make_doc({"a": entry(1.0)})
        cur = make_doc({"a": entry(1.0), "zz": entry(9.0), "b": entry(0.1)})
        results = compare_to_baseline(cur, base)
        assert [(r.case, r.status) for r in results] == [
            ("a", "ok"),
            ("b", "unbaselined"),
            ("zz", "unbaselined"),
        ]
        assert all(r.ratio is None for r in results[1:])
        assert not has_regression(results)


class TestHelpers:
    def test_geomean(self):
        assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-9
        assert geomean([]) == 0.0

    def test_dms_speedups(self):
        doc = make_doc({"dms_x": entry(1.0, best=0.002)})
        doc["seed_reference"] = {"dms_x": 0.006}
        assert abs(dms_speedups(doc)["dms_x"] - 3.0) < 1e-9

    def test_render_table_mentions_cases_and_speedup(self):
        doc = make_doc({"dms_x": entry(1.0, best=0.002)})
        doc["seed_reference"] = {"dms_x": 0.006}
        table = render_table(doc)
        assert "dms_x" in table
        assert "geomean" in table

    def test_roundtrip_and_schema_check(self, tmp_path):
        doc = make_doc({"a": entry(1.0)})
        path = str(tmp_path / "bench.json")
        write_json(doc, path)
        assert load_baseline(path)["cases"]["a"]["normalized"] == 1.0
        bad = dict(doc, schema=999)
        write_json(bad, path)
        try:
            load_baseline(path)
        except BenchError as err:
            assert "schema" in str(err)
        else:  # pragma: no cover
            raise AssertionError("schema mismatch accepted")


class TestRunBench:
    def test_quick_run_single_case(self):
        doc = run_bench(quick=True, case_names=["mii_lms"])
        case = doc["cases"]["mii_lms"]
        assert case["best_s"] > 0
        assert case["normalized"] > 0
        assert case["reps"] == 3
        assert doc["schema"] == BENCH_SCHEMA

    def test_unknown_case_rejected(self):
        try:
            run_bench(case_names=["nope"])
        except BenchError as err:
            assert "nope" in str(err)
        else:  # pragma: no cover
            raise AssertionError("unknown case accepted")

    def test_profile_case_output(self):
        report = profile_case("mii_lms", top=5)
        assert "cumulative" in report

    def test_committed_baseline_is_loadable_and_complete(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        baseline = load_baseline(os.path.join(root, "BENCH_scheduler.json"))
        assert sorted(baseline["cases"]) == sorted(CASE_NAMES)
        assert "seed_reference" in baseline
        assert "seed_reference_note" in baseline

    def test_baseline_carry_keeps_seed_reference_and_note(self, tmp_path, capsys):
        previous = tmp_path / "previous.json"
        previous.write_text(
            json.dumps({"seed_reference": {"mii_lms": 0.001}, "seed_reference_note": "why"})
        )
        out = str(tmp_path / "out.json")
        argv = ["bench", "--quick", "--cases", "mii_lms", "--out", out]
        assert main(argv + ["--baseline-carry", str(previous)]) == 0
        capsys.readouterr()
        doc = json.loads(open(out).read())
        assert doc["seed_reference"] == {"mii_lms": 0.001}
        assert doc["seed_reference_note"] == "why"


class TestSearchStats:
    def test_scheduler_case_records_search_stats(self):
        doc = run_bench(quick=True, case_names=["dms_narrow"])
        stats = doc["cases"]["dms_narrow"]["search"]
        assert stats["ii"] >= 1
        assert stats["ii_attempts"] >= 1
        assert stats["restarts_per_success"] >= stats["ii_attempts"]
        assert stats["budget_used"] > 0
        assert stats["futility_aborts"] >= 0

    def test_micro_case_has_no_search_stats(self):
        doc = run_bench(quick=True, case_names=["mii_lms"])
        assert "search" not in doc["cases"]["mii_lms"]

    def test_search_override_recorded_and_validated(self):
        doc = run_bench(
            quick=True, case_names=["dms_narrow"], search="ladder"
        )
        assert doc["search_override"] == "ladder"
        try:
            run_bench(search="bogus")
        except BenchError as err:
            assert "bogus" in str(err)
        else:  # pragma: no cover
            raise AssertionError("unknown search policy accepted")

    def test_adaptive_and_ladder_agree_on_ii(self):
        adaptive = run_bench(quick=True, case_names=["dms_unroll8"])
        ladder = run_bench(
            quick=True, case_names=["dms_unroll8"], search="ladder"
        )
        assert (
            adaptive["cases"]["dms_unroll8"]["search"]["ii"]
            == ladder["cases"]["dms_unroll8"]["search"]["ii"]
        )

    def test_bench_search_flag_cli(self, capsys):
        assert (
            main(
                ["bench", "--quick", "--cases", "dms_narrow", "--search", "adaptive"]
            )
            == 0
        )
        capsys.readouterr()


class TestBenchCli:
    def test_bench_command_with_check(self, tmp_path, capsys):
        baseline = str(tmp_path / "base.json")
        out = str(tmp_path / "cur.json")
        assert (
            main(["bench", "--quick", "--cases", "mii_lms", "--out", baseline]) == 0
        )
        capsys.readouterr()
        code = main(
            [
                "bench",
                "--quick",
                "--cases",
                "mii_lms",
                "--check",
                "--baseline",
                baseline,
                "--tolerance",
                "5.0",
                "--out",
                out,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "benchmark gate: ok" in printed
        assert json.load(open(out))["cases"]["mii_lms"]["best_s"] > 0

    def test_bench_check_lists_unbaselined_cases(self, tmp_path, capsys):
        baseline = str(tmp_path / "base.json")
        out = str(tmp_path / "cur.json")
        assert main(["bench", "--quick", "--cases", "mii_lms", "--out", baseline]) == 0
        capsys.readouterr()
        code = main(
            [
                "bench",
                "--quick",
                "--cases",
                "mii_lms,unroll_single_use_fir4",
                "--check",
                "--baseline",
                baseline,
                "--tolerance",
                "5.0",
                "--out",
                out,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "[ NEW] unroll_single_use_fir4" in printed
        assert "benchmark gate: ok" in printed
        assert json.load(open(out))["unbaselined"] == ["unroll_single_use_fir4"]

    def test_bench_profile_cli(self, capsys):
        assert main(["bench", "--profile", "mii_lms"]) == 0
        assert "cumulative" in capsys.readouterr().out

    def test_bench_unknown_case_exit_2(self, capsys):
        assert main(["bench", "--cases", "bogus"]) == 2

    def test_bench_unknown_profile_case_exit_2(self, capsys):
        assert main(["bench", "--profile", "bogus"]) == 2
        assert "unknown bench case" in capsys.readouterr().err
