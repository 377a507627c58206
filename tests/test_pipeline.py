"""Tests for the default toolchain's end-to-end flow and unroll policy."""

import pytest

from repro.config import SchedulerConfig
from repro.errors import SchedulingError
from repro.ir import DEFAULT_LATENCIES
from repro.ir.transforms import unroll_loop
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling import validate_schedule
from repro.scheduling.mii import choose_unroll_factor
from repro.workloads import make_kernel

from .conftest import build_reduction_loop, build_stream_loop, compile_for


class TestUnrollPolicy:
    def test_narrow_machine_needs_no_unroll(self):
        loop = build_stream_loop()
        assert choose_unroll_factor(loop.ddg, 1) == 1

    def test_wide_machine_unrolls_small_loops(self):
        loop = build_stream_loop()  # 3 mem ops
        u = choose_unroll_factor(loop.ddg, 6)
        # 3 mem ops on 6 L/S units: needs at least 2 copies of the body
        # to reach full throughput.
        assert u >= 2

    def test_recurrence_limits_unrolling(self):
        # A divide recurrence (RecMII 8) dominates: unrolling cannot help
        # beyond matching resource and recurrence bounds.
        from repro.ir import LoopBuilder

        b = LoopBuilder("divrec")
        s = b.placeholder()
        nxt = b.div(b.carried(s, 1), "r")
        b.bind(s, nxt)
        loop = b.build()
        u = choose_unroll_factor(loop.ddg, 8)
        assert u == 1

    def test_projected_ii_not_worse_than_unity(self):
        for k in (1, 2, 4, 8, 10):
            loop = build_reduction_loop()
            u = choose_unroll_factor(loop.ddg, k)
            assert 1 <= u <= SchedulerConfig().unroll_cap

    def test_rejects_bad_k(self):
        loop = build_stream_loop()
        with pytest.raises(SchedulingError):
            choose_unroll_factor(loop.ddg, 0)


class TestDefaultToolchain:
    def test_unclustered_uses_ims(self):
        compiled = compile_for(build_stream_loop(), unclustered_vliw(2))
        assert compiled.result.scheduler == "ims"
        validate_schedule(compiled.result)

    def test_clustered_uses_dms(self):
        compiled = compile_for(build_stream_loop(), clustered_vliw(4))
        assert compiled.result.scheduler == "dms"
        validate_schedule(compiled.result)
        assert compiled.allocation is not None
        assert compiled.allocation.fits

    def test_single_cluster_machine_skips_single_use(self):
        loop = make_kernel("stencil5")  # fan-out 5 on the load
        compiled = compile_for(loop, clustered_vliw(1))
        assert compiled.result.n_copies == 0

    def test_clustered_machine_gets_copies(self):
        loop = make_kernel("stencil5")
        compiled = compile_for(loop, clustered_vliw(3))
        assert compiled.result.n_copies > 0
        validate_schedule(compiled.result)

    def test_explicit_unroll_respected(self):
        compiled = compile_for(
            build_stream_loop(), unclustered_vliw(2), unroll=3
        )
        assert compiled.unroll_factor == 3
        assert len(compiled.result.ddg) == 3 * build_stream_loop().n_ops

    def test_shared_unroll_between_pair(self):
        loop = build_stream_loop()
        a = compile_for(loop, unclustered_vliw(4), equivalent_k=4)
        b = compile_for(loop, clustered_vliw(4), equivalent_k=4)
        assert a.unroll_factor == b.unroll_factor

    def test_already_unrolled_rejected(self):
        loop = unroll_loop(build_stream_loop(), 2)
        with pytest.raises(SchedulingError):
            compile_for(loop, unclustered_vliw(1))


class TestMetrics:
    def test_cycle_model(self):
        compiled = compile_for(
            build_stream_loop("s", trip_count=100), unclustered_vliw(1), unroll=1
        )
        result = compiled.result
        expected = (100 + result.stage_count - 1) * result.ii
        assert compiled.cycles == expected

    def test_kernel_iterations_ceiling(self):
        loop = build_stream_loop("s", trip_count=100)
        compiled = compile_for(loop, unclustered_vliw(2), unroll=3)
        assert compiled.kernel_iterations == 34

    def test_ipc_bounded_by_machine_width(self):
        compiled = compile_for(build_stream_loop(), unclustered_vliw(2))
        assert 0 < compiled.ipc <= 6

    def test_useful_instances_exclude_copies(self):
        loop = make_kernel("stencil5", trip_count=64)
        compiled = compile_for(loop, clustered_vliw(4), equivalent_k=4)
        useful_per_iter = compiled.result.n_useful_ops
        assert compiled.useful_instances == useful_per_iter * compiled.kernel_iterations
