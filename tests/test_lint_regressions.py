"""Regression tests for the defects the static analyzer flushed out.

Each test pins one bring-up fix:

* the cache's silent ``except Exception`` swallow (now narrowed, with an
  ``errors`` counter surfaced through ``/metrics``);
* the daemon's blanket ``noqa: BLE001`` catch (now re-raises
  ``MemoryError``, and a broken worker pool is respawned when owned or
  surfaced as 503 + drain when injected);
* the event-loop-blocking metrics/port-file writes in ``run_service``;
* the fork-default process pools in batch/search/oracle (now pinned to
  the spawn context via :func:`repro.pools.spawn_pool`).

The *old* defective shapes are kept here as inline sources and asserted
to be true positives of the rules that caught them — so the rules can
never silently stop covering the bugs that motivated them.
"""

import asyncio
import os
import pickle
import signal
import textwrap
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.analysis import LintConfig
from repro.analysis.rules import get_rule
from repro.analysis.runner import lint_file
from repro.api import CompilationRequest, Toolchain
from repro.api.cache import CompilationCache, TieredCache, content_hash
from repro.errors import ServiceError
from repro.machine.machine import clustered_vliw
from repro.pools import spawn_pool
from repro.workloads import make_kernel

from .test_service import running_service, wait_until

LADDER = {"search": "ladder"}


def _lint_source(tmp_path, source, *, rules, api_paths=()):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    config = LintConfig(
        root=tmp_path, paths=(".",),
        determinism_paths=(), api_paths=api_paths, cache_guards=(),
    )
    findings, _ = lint_file(
        path, "snippet.py", [get_rule(r) for r in rules], config
    )
    return findings


# ----------------------------------------------------------------------
# Cache: corrupt entries are counted, not swallowed
# ----------------------------------------------------------------------


class TestCacheErrorCounter:
    def compile_one(self):
        toolchain = Toolchain()
        request = CompilationRequest(
            loop=make_kernel("daxpy"),
            machine=clustered_vliw(2),
            allocate=False,
        )
        return request, toolchain.compile(request)

    def test_corrupt_entry_counts_error_and_recovers(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        request, report = self.compile_one()
        key = content_hash(request)
        cache.put(key, report)
        cache.path_for(key).write_bytes(b"\x80\x05 garbage")

        assert cache.get(key) is None
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        assert not cache.path_for(key).exists()  # damaged entry evicted
        assert "1 errors" in cache.stats.summary()

    def test_wrong_type_entry_counts_error(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        path = cache.path_for("ab" * 8)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a report"}))
        assert cache.get("ab" * 8) is None
        assert cache.stats.errors == 1

    def test_tiered_counters_surface_disk_errors(self, tmp_path):
        disk = CompilationCache(tmp_path / "cache")
        tiered = TieredCache(disk=disk)
        request, report = self.compile_one()
        key = content_hash(request)
        disk.put(key, report)
        disk.path_for(key).write_bytes(b"junk")
        assert tiered.get(key) is None
        assert tiered.counters()["disk_errors"] == 1

    def test_old_swallow_shape_is_a_true_positive(self, tmp_path):
        """The pre-fix cache.get shape: broad catch, no counter, no raise."""
        findings = _lint_source(
            tmp_path,
            """
            def get(self, path):
                try:
                    return load(path)
                except Exception:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    return None
            """,
            rules=["exception-discipline"],
        )
        assert [f.rule for f in findings] == ["exception-discipline"]


# ----------------------------------------------------------------------
# Daemon: the job-isolation catch re-raises what it must
# ----------------------------------------------------------------------


class TestDaemonExceptionBoundary:
    PAYLOAD = {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)}

    def test_generic_failure_is_a_500(self):
        def exploding_compile(toolchain, request):
            raise RuntimeError("scheduler bug")

        with running_service(compile_fn=exploding_compile) as (
            service, client, _loop,
        ):
            with pytest.raises(ServiceError) as err:
                client.compile(dict(self.PAYLOAD))
            assert err.value.status == 500
            assert service.metrics.compiles_failed == 1
            assert not service._draining  # one bad job doesn't drain

    def test_broken_executor_gives_503_and_drains(self):
        # The original defect: a blanket catch dressed a dead worker
        # pool up as an ordinary compile failure.  A crash on an *owned*
        # pool is a lost lease: respawned and requeued (pinned in
        # test_service_faults); an injected executor is not the
        # daemon's to rebuild, so that path must still surface the
        # break as 503 + drain rather than swallow it.
        def broken_compile(toolchain, request):
            raise BrokenExecutor("worker died")

        injected = ThreadPoolExecutor(max_workers=1)
        try:
            with running_service(
                compile_fn=broken_compile, executor=injected,
            ) as (service, client, _loop):
                with pytest.raises(ServiceError) as err:
                    client.compile(dict(self.PAYLOAD))
                assert err.value.status == 503
                wait_until(lambda: service._draining, what="drain requested")
        finally:
            injected.shutdown(wait=False, cancel_futures=True)

    def test_memory_error_fails_job_with_503_and_propagates(self):
        def oom_compile(toolchain, request):
            raise MemoryError

        with running_service(compile_fn=oom_compile) as (
            service, client, loop,
        ):
            seen = []
            loop.call_soon_threadsafe(
                loop.set_exception_handler,
                lambda _loop, ctx: seen.append(ctx.get("exception")),
            )
            with pytest.raises(ServiceError) as err:
                client.compile(dict(self.PAYLOAD))
            assert err.value.status == 503
            # The MemoryError escapes the job task instead of being
            # dressed up as a compile failure.
            wait_until(
                lambda: any(isinstance(e, MemoryError) for e in seen),
                what="MemoryError reaching the loop handler",
            )

    def test_old_noqa_shape_is_a_true_positive(self, tmp_path):
        """The pre-fix _run_job shape: catch-everything with a noqa tag."""
        findings = _lint_source(
            tmp_path,
            """
            async def _run_job(self, job):
                try:
                    await self.work(job)
                except Exception as err:  # noqa: BLE001 - daemon must not die
                    self._finish_error(job, err, status=500)
            """,
            rules=["exception-discipline"],
        )
        assert [f.rule for f in findings] == ["exception-discipline"]


# ----------------------------------------------------------------------
# Event loop: service file writes are offloaded
# ----------------------------------------------------------------------


class TestRunServiceFileWrites:
    def test_port_file_and_metrics_out_written(self, tmp_path):
        from repro.service import run_service

        port_file = tmp_path / "port.txt"
        metrics_out = tmp_path / "final.json"

        async def drive():
            task = asyncio.ensure_future(
                run_service(
                    port=0, workers=0, port_file=str(port_file),
                    metrics_out=str(metrics_out), quiet=True,
                )
            )
            for _ in range(400):
                if port_file.exists() and port_file.read_text().strip():
                    break
                await asyncio.sleep(0.05)
            else:
                task.cancel()
                raise AssertionError("port file never appeared")
            os.kill(os.getpid(), signal.SIGTERM)
            return await asyncio.wait_for(task, 60)

        snapshot = asyncio.run(drive())
        host, _, port = port_file.read_text().strip().partition(":")
        assert host == "127.0.0.1" and int(port) > 0
        assert metrics_out.exists()
        assert snapshot["draining"] is True

    def test_sync_write_in_async_def_is_a_true_positive(self, tmp_path):
        """The pre-fix run_service shape: Path.write_text on the loop."""
        findings = _lint_source(
            tmp_path,
            """
            async def run_service(port_file, bound):
                Path(port_file).write_text(bound)
            """,
            rules=["async-blocking"],
        )
        assert [f.rule for f in findings] == ["async-blocking"]


# ----------------------------------------------------------------------
# Pools: spawn context everywhere
# ----------------------------------------------------------------------


class TestSpawnPools:
    def test_spawn_pool_pins_spawn_context(self):
        pool = spawn_pool(1)
        try:
            assert type(pool._mp_context).__name__ == "SpawnContext"
        finally:
            pool.shutdown(wait=False)

    def test_fork_default_pool_is_a_true_positive(self, tmp_path):
        """The pre-fix batch/search/oracle shape: default start method."""
        findings = _lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(jobs, workers):
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(str, jobs))
            """,
            rules=["pool-safety"],
        )
        assert [f.rule for f in findings] == ["pool-safety"]
