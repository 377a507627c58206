"""Tests for the experiment runner, metrics and figure builders."""

import os

import pytest

from repro.api import CompilationCache, Toolchain, content_hash
from repro.errors import ReproError
from repro.experiments import (
    FigureData,
    SweepConfig,
    backtracking_report,
    figure4,
    figure5,
    figure6,
    ii_overhead_fraction,
    moves_report,
    run_sweep,
    sweep_requests,
)
from repro.experiments.metrics import LoopRun, aggregate_ipc, total_cycles
from repro.workloads import perfect_club_surrogate


@pytest.fixture(scope="module")
def small_runs():
    loops = perfect_club_surrogate(12, seed=5)
    return run_sweep(loops, SweepConfig(cluster_counts=[1, 2, 4]))


class TestRunner:
    def test_two_records_per_loop_per_k(self, small_runs):
        assert len(small_runs) == 12 * 3 * 2

    def test_schedulers_paired(self, small_runs):
        keys = {(r.loop_name, r.clusters, r.scheduler) for r in small_runs}
        for name in {r.loop_name for r in small_runs}:
            for k in (1, 2, 4):
                assert (name, k, "ims") in keys
                assert (name, k, "dms") in keys

    def test_shared_unroll_factor(self, small_runs):
        by_pair = {}
        for run in small_runs:
            by_pair.setdefault((run.loop_name, run.clusters), []).append(run)
        for (name, k), pair in by_pair.items():
            assert pair[0].unroll == pair[1].unroll

    def test_ii_at_least_mii(self, small_runs):
        for run in small_runs:
            assert run.ii >= run.mii

    def test_useful_fus_match_cluster_count(self, small_runs):
        for run in small_runs:
            assert run.useful_fus == 3 * run.clusters

    def test_stored_record_yields_the_cold_run(self, tmp_path, monkeypatch):
        """A cache entry's summary alone, never unpickled, gives the same
        LoopRun as the report it was stored from."""
        import repro.api.cache as cache_module

        jobs = sweep_requests(
            perfect_club_surrogate(2, seed=5), SweepConfig(cluster_counts=[1, 3])
        )
        cache = CompilationCache(tmp_path)
        cold = []
        for k, request in jobs:
            report = Toolchain.default().compile(request)
            cold.append(LoopRun.from_record(report.to_dict(), k))
            assert cold[-1].cycles == report.compiled.cycles
            assert cold[-1].total_ejections == report.result.stats.total_ejections
            cache.put(content_hash(request), report)

        def no_unpickling(_data):
            raise AssertionError("a stored record was unpickled")

        monkeypatch.setattr(cache_module.pickle, "loads", no_unpickling)
        for (k, request), run in zip(jobs, cold):
            entry = cache.get_encoded(content_hash(request))
            assert LoopRun.from_record(entry.summary["report"], k) == run

    def test_cycles_formula(self, small_runs):
        for run in small_runs:
            expected = (run.kernel_iterations + run.stage_count - 1) * run.ii
            assert run.cycles == expected


class TestMetrics:
    def test_overhead_fraction_bounds(self, small_runs):
        for k in (1, 2, 4):
            assert 0.0 <= ii_overhead_fraction(small_runs, k) <= 1.0

    def test_no_overhead_single_cluster(self, small_runs):
        assert ii_overhead_fraction(small_runs, 1) == 0.0

    def test_total_cycles_positive(self, small_runs):
        assert total_cycles(small_runs, 2, "dms") > 0
        assert total_cycles(small_runs, 2, "dms", vectorizable_only=True) > 0

    def test_aggregate_ipc_monotone_with_width(self, small_runs):
        ipc1 = aggregate_ipc(small_runs, 1, "ims")
        ipc4 = aggregate_ipc(small_runs, 4, "ims")
        assert ipc4 > ipc1

    def test_clustered_never_beats_unclustered_cycles(self, small_runs):
        # DMS adds constraints to IMS's problem; aggregate cycles can
        # only degrade (1% slack: DMS's restarts occasionally out-pack
        # IMS's single greedy pass on individual loops).
        for k in (1, 2, 4):
            assert total_cycles(small_runs, k, "dms") >= 0.99 * total_cycles(
                small_runs, k, "ims"
            )

    def test_missing_data_raises(self, small_runs):
        with pytest.raises(ReproError):
            total_cycles(small_runs, 9, "dms")
        with pytest.raises(ReproError):
            ii_overhead_fraction(small_runs, 9)


class TestFigures:
    def test_figure4_shape(self, small_runs):
        fig = figure4(small_runs)
        assert fig.x == [1.0, 2.0, 4.0]
        assert fig.series_value("ii_increase_pct", 1.0) == 0.0

    def test_figure5_normalised_to_100(self, small_runs):
        fig = figure5(small_runs)
        for label in ("set1_unclustered", "set2_unclustered"):
            assert fig.series_value(label, 3.0) == pytest.approx(100.0)

    def test_figure5_monotone_decreasing_unclustered(self, small_runs):
        fig = figure5(small_runs)
        values = fig.series["set1_unclustered"]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_figure6_series_complete(self, small_runs):
        fig = figure6(small_runs)
        assert set(fig.series) == {
            "set1_unclustered",
            "set1_clustered",
            "set2_unclustered",
            "set2_clustered",
        }

    def test_backtracking_report(self, small_runs):
        fig = backtracking_report(small_runs)
        assert set(fig.series) == {"ims", "dms"}
        assert all(v >= 0 for series in fig.series.values() for v in series)

    def test_moves_report(self, small_runs):
        fig = moves_report(small_runs)
        assert fig.series["moves"][0] == 0.0  # no moves on 1 cluster

    def test_render_table(self, small_runs):
        text = figure4(small_runs).render_table()
        assert "clusters" in text
        assert "ii_increase_pct" in text

    def test_to_csv(self, small_runs, tmp_path):
        path = os.path.join(tmp_path, "fig4.csv")
        figure4(small_runs).to_csv(path)
        content = open(path).read()
        assert "clusters" in content.splitlines()[0]
        assert len(content.splitlines()) == 4

    def test_series_length_validated(self):
        with pytest.raises(ReproError):
            FigureData("x", "t", "x", [1.0, 2.0], {"bad": [1.0]})
