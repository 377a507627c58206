"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestInfo:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "HPCA" in out
        assert "fig4" in out


class TestSuiteStats:
    def test_stats_output(self, capsys):
        assert main(["suite-stats", "--loops", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "loops:" in out
        assert "vectorizable:" in out
        assert "op mix:" in out


class TestSchedule:
    def test_schedule_clustered_kernel(self, capsys):
        assert main(["schedule", "dot_product", "--clusters", "3"]) == 0
        out = capsys.readouterr().out
        assert "DMS" in out
        assert "kernel:" in out

    def test_schedule_unclustered(self, capsys):
        assert main(["schedule", "daxpy", "--clusters", "2", "--unclustered"]) == 0
        out = capsys.readouterr().out
        assert "IMS" in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "nonsense"])

    def test_removed_portfolio_search_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["schedule", "dot_product", "--search", "portfolio"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'portfolio'" in capsys.readouterr().err


class TestTarget:
    def test_target_list(self, capsys):
        assert main(["target", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-ring-4" in out
        assert "mesh-3x3" in out
        assert "crossbar-8" in out

    def test_target_show_emits_toml(self, capsys):
        assert main(["target", "show", "mesh-3x3"]) == 0
        out = capsys.readouterr().out
        assert 'kind = "mesh"' in out
        assert "[topology.params]" in out

    def test_target_validate_ok(self, capsys):
        assert main(["target", "validate", "hetero-4"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_target_validate_unknown(self, capsys):
        assert main(["target", "validate", "nope"]) == 2
        assert "invalid target" in capsys.readouterr().err

    def test_target_show_needs_name(self, capsys):
        assert main(["target", "show"]) == 2

    def test_target_file_round_trip_through_cli(self, capsys, tmp_path):
        main(["target", "show", "crossbar-8"])
        text = capsys.readouterr().out
        toml_lines = [line for line in text.splitlines() if not line.startswith("#")]
        path = tmp_path / "custom.toml"
        path.write_text("\n".join(toml_lines))
        assert main(["target", "validate", str(path)]) == 0

    def test_schedule_with_target(self, capsys):
        assert main(["schedule", "dot_product", "--target", "mesh-3x3"]) == 0
        out = capsys.readouterr().out
        assert "DMS" in out
        assert "mesh-3x3" in out

    def test_batch_with_targets(self, capsys):
        argv = [
            "batch",
            "--kernels",
            "daxpy,vector_add",
            "--target",
            "mesh-3x3,crossbar-8",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.count("DMS") == 4
        assert "2 kernels x 2 targets" in captured.err

    def test_batch_with_unknown_target(self, capsys):
        assert (
            main(["batch", "--kernels", "daxpy", "--target", "bogus"]) == 2
        )


class TestFigures:
    def test_fig4_small(self, capsys):
        assert main(["fig4", "--loops", "6", "--clusters", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "ii_increase_pct" in out

    def test_backtracking_small(self, capsys):
        assert main(["backtracking", "--loops", "5", "--clusters", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "dms" in out

    def test_csv_written(self, capsys, tmp_path):
        out_dir = str(tmp_path / "results")
        assert (
            main(
                [
                    "fig4",
                    "--loops",
                    "5",
                    "--clusters",
                    "1,2",
                    "--csv",
                    out_dir,
                ]
            )
            == 0
        )
        assert os.path.exists(os.path.join(out_dir, "figure4.csv"))

    def test_all_figures(self, capsys):
        assert main(["all-figures", "--loops", "5", "--clusters", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Figure 5" in out
        assert "Figure 6" in out
        assert "Backtracking" in out

    def test_runs_out_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        assert (
            main(
                [
                    "fig4",
                    "--loops",
                    "4",
                    "--clusters",
                    "1,2",
                    "--runs-out",
                    path,
                ]
            )
            == 0
        )
        from repro.experiments import load_runs

        assert len(load_runs(path)) == 4 * 2 * 2


class TestBatch:
    def test_batch_reports_and_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "batch",
            "--kernels",
            "daxpy,dot_product",
            "--clusters",
            "2,4",
            "--cache",
            cache_dir,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("DMS") == 4
        # Second run hits the cache for every job.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("[cache]") == 4

    def test_batch_json_and_timings(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "reports.jsonl")
        assert (
            main(
                [
                    "batch",
                    "--kernels",
                    "vector_add",
                    "--clusters",
                    "2",
                    "--json",
                    path,
                    "--timings",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compilation time per pass" in out
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 1
        assert records[0]["loop"] == "vector_add"
        assert records[0]["scheduler"] == "dms"

    def test_batch_unknown_kernel_rejected(self, capsys):
        assert main(["batch", "--kernels", "nonsense", "--clusters", "2"]) == 2


class TestSupplementaryCommands:
    def test_storage(self, capsys):
        assert main(["storage", "--loops", "4", "--clusters", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "central_rf_maxlive" in out

    def test_ablation(self, capsys):
        assert main(
            ["ablation", "restarts", "--loops", "4", "--clusters", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "restarts_1" in out

    def test_baseline(self, capsys):
        assert main(["baseline", "--loops", "3", "--clusters", "4"]) == 0
        out = capsys.readouterr().out
        assert "two_phase" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "--loops", "3", "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "unit_latency" in out

    def test_unknown_ablation_rejected(self):
        with pytest.raises(SystemExit):
            main(["ablation", "gravity"])


class TestVerify:
    def test_verify_subset(self, capsys):
        assert main(
            [
                "verify",
                "--kernels",
                "dot_product,fir_filter",
                "--topologies",
                "ring,crossbar",
                "--clusters",
                "2,4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "verified 8 program(s)" in out
        assert "0 failure(s)" in out

    def test_verify_short_ramp_and_unclustered(self, capsys):
        assert main(
            [
                "verify",
                "--kernels",
                "fir_filter",
                "--topologies",
                "ring",
                "--clusters",
                "2",
                "--short-ramp",
                "--unclustered",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_verify_unknown_kernel(self, capsys):
        assert main(["verify", "--kernels", "nonsense"]) == 2

    def test_verify_unknown_topology(self, capsys):
        assert main(["verify", "--topologies", "moebius"]) == 2


class TestFuzz:
    def test_fuzz_seeded_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "fuzz.json"
        assert main(
            [
                "fuzz",
                "--seed",
                "1999",
                "--trials",
                "5",
                "--mutants",
                "4",
                "--out",
                str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "5 trial(s)" in out
        assert "OK" in out
        import json

        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["trials_run"] == 5
