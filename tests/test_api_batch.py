"""Batch/parallel compilation equivalence and warm-cache performance.

The acceptance property of the session redesign: fanning the kernel
suite across a process pool produces bit-identical schedules to per-loop
serial ``Toolchain.compile``, and a warm cache answers the same sweep in a
small fraction of the cold wall-clock.

The full suite x k=1..10 sweep is genuinely expensive (DMS backtracking
on the widest rings dominates), so it runs exactly once per interpreter:
the module-scoped fixture holds the cold parallel run and its cache, and
every acceptance assertion reads from it.
"""

import time
from types import SimpleNamespace

import pytest

from repro.api import (
    CompilationRequest,
    Toolchain,
    compile_many,
)
from repro.errors import ReproError
from repro.machine import clustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.workloads import KERNELS, make_kernel, perfect_club_surrogate

#: Full acceptance sweep: every kernel x every paper cluster count.
FULL_CLUSTER_RANGE = tuple(range(1, 11))


def _suite_requests(cluster_counts):
    return [
        CompilationRequest(
            loop=make_kernel(name),
            machine=clustered_vliw(k),
            equivalent_k=k,
            allocate=False,
        )
        for name in sorted(KERNELS)
        for k in cluster_counts
    ]


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    """One cold parallel run of KERNELS x k=1..10 into a fresh cache."""
    cache_dir = tmp_path_factory.mktemp("compile-cache")
    requests = _suite_requests(FULL_CLUSTER_RANGE)
    started = time.perf_counter()
    reports = compile_many(requests, workers=2, cache=cache_dir)
    seconds = time.perf_counter() - started
    return SimpleNamespace(
        requests=requests, reports=reports, seconds=seconds, cache_dir=cache_dir
    )


class TestParallelEqualsSerial:
    def test_full_kernel_suite_bit_identical(self, cold_sweep):
        """Parallel compile_many == per-request Toolchain.compile, whole sweep."""
        assert len(cold_sweep.reports) == len(KERNELS) * len(FULL_CLUSTER_RANGE)
        toolchain = Toolchain.default()
        for request, report in zip(cold_sweep.requests, cold_sweep.reports):
            serial = toolchain.compile(request).compiled
            assert schedule_fingerprint(report.result) == schedule_fingerprint(
                serial.result
            ), f"{request.describe()} diverged between parallel and serial"
            assert report.compiled.unroll_factor == serial.unroll_factor

    def test_results_preserve_request_order(self, cold_sweep):
        for request, report in zip(cold_sweep.requests, cold_sweep.reports):
            assert report.result.loop_name == request.loop.name
            assert report.result.machine.name == request.machine.name


class TestWarmCachePerformance:
    def test_warm_rerun_is_fast_and_identical(self, cold_sweep):
        started = time.perf_counter()
        warm = compile_many(cold_sweep.requests, cache=cold_sweep.cache_dir)
        warm_seconds = time.perf_counter() - started
        assert all(r.cache_hit for r in warm)
        for before, after in zip(cold_sweep.reports, warm):
            assert schedule_fingerprint(before.result) == schedule_fingerprint(
                after.result
            )
        # Acceptance: warm rerun in <10% of the cold wall-clock.
        assert warm_seconds < 0.1 * cold_sweep.seconds, (
            f"warm rerun took {warm_seconds:.3f}s vs cold {cold_sweep.seconds:.3f}s"
        )

    def test_warm_rerun_compiles_nothing(self, cold_sweep, monkeypatch):
        """The wall-clock ratio's deterministic twin: a warm rerun, even
        one allowed a pool, runs no compile and starts no pool."""
        import repro.pools as pools

        compiles = []
        real_compile = Toolchain.compile

        def counting_compile(self, request):
            compiles.append(request)
            return real_compile(self, request)

        def no_pool(workers):
            raise AssertionError("a warm rerun entered spawn_pool")

        monkeypatch.setattr(Toolchain, "compile", counting_compile)
        monkeypatch.setattr(pools, "spawn_pool", no_pool)
        warm = compile_many(
            cold_sweep.requests, cache=cold_sweep.cache_dir, workers=2
        )
        assert compiles == []
        assert all(r.cache_hit for r in warm)


class TestErrorPolicy:
    def _overflow_requests(self):
        # An II ceiling of exactly MII makes the two-phase baseline fail
        # on every loop whose achieved II exceeds its MII; on an 8-wide
        # ring that reliably includes several kernels.
        from repro.config import SchedulerConfig

        tight = SchedulerConfig(max_ii_factor=1, max_ii_extra=0)
        return [
            CompilationRequest(
                loop=make_kernel(name),
                machine=clustered_vliw(8),
                config=tight,
                equivalent_k=8,
                allocate=False,
                scheduler="two_phase",
            )
            for name in sorted(KERNELS)
        ]

    def test_default_policy_raises(self):
        with pytest.raises(ReproError):
            compile_many(self._overflow_requests())


class TestSweepIntegration:
    def test_parallel_sweep_equals_serial_sweep(self):
        from repro.experiments import SweepConfig, run_sweep

        loops = perfect_club_surrogate(6, seed=11)
        serial = run_sweep(loops, SweepConfig(cluster_counts=(1, 3)))
        parallel = run_sweep(loops, SweepConfig(cluster_counts=(1, 3), workers=2))
        assert serial == parallel

    def test_pooled_sweep_unpickles_no_report_in_the_parent(self, monkeypatch):
        """A pool worker sends back the compile's record, not its report:
        the pooled sweep finishes, equal to the serial one, while every
        parent-side unpickle of a CompilationReport fails."""
        from repro.api.request import CompilationReport
        from repro.experiments import SweepConfig, run_sweep

        loops = perfect_club_surrogate(4, seed=11)
        serial = run_sweep(loops, SweepConfig(cluster_counts=(1, 3)))

        def refuse(self, state):
            raise AssertionError("the parent unpickled a CompilationReport")

        monkeypatch.setattr(
            CompilationReport, "__setstate__", refuse, raising=False
        )
        pooled = run_sweep(loops, SweepConfig(cluster_counts=(1, 3), workers=2))
        assert pooled == serial


class TestJobMap:
    """``repro.pools.job_map`` is the one local fan-out: batch compiles,
    figure sweeps and the oracle's matrix all reach the pool through it."""

    @pytest.fixture
    def thread_pools(self, monkeypatch):
        """Route ``spawn_pool`` to thread pools, recording each width."""
        import repro.pools as pools
        from concurrent.futures import ThreadPoolExecutor

        widths = []

        def thread_pool(workers):
            widths.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(pools, "spawn_pool", thread_pool)
        return widths

    def test_builtin_map_without_work_to_share(self, thread_pools):
        from repro.pools import job_map

        for workers, n_jobs in ((None, 5), (1, 5), (2, 1), (2, 0)):
            with job_map(workers, n_jobs) as map_jobs:
                assert map_jobs is map
        assert thread_pools == []

    def test_every_local_driver_uses_it(self, thread_pools):
        from repro.experiments import SweepConfig, run_sweep
        from repro.validate import verify_many

        requests = _suite_requests((2,))[:3]
        reports = compile_many(requests, workers=2)
        loops = perfect_club_surrogate(2, seed=11)
        runs = run_sweep(loops, SweepConfig(cluster_counts=(2,), workers=2))
        checks = verify_many([(r.compiled, None) for r in reports], workers=2)
        assert thread_pools == [2, 2, 2]
        assert runs == run_sweep(loops, SweepConfig(cluster_counts=(2,)))
        assert all(check.ok for check in checks)
