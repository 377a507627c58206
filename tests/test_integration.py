"""End-to-end integration: kernels through the full pipeline.

Every named kernel is compiled for a pair of machines, validated by the
checker, queue-allocated, code-generated and executed by the oracle.
This is the closest thing to "the whole system, as a user would run it".
"""

import pytest

from repro.codegen import assembly_for, build_program
from repro.machine import clustered_vliw, unclustered_vliw
from repro.registers import allocate_queues, register_pressure
from repro.scheduling import validate_schedule
from repro.validate import verify_compiled
from repro.workloads import KERNELS, make_kernel

from .conftest import compile_for


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestKernelPipeline:
    def test_unclustered(self, name):
        loop = make_kernel(name)
        compiled = compile_for(loop, unclustered_vliw(2), equivalent_k=2)
        validate_schedule(compiled.result)
        report = verify_compiled(compiled, iterations=6)
        assert report.ok, report.all_problems

    def test_clustered(self, name):
        loop = make_kernel(name)
        compiled = compile_for(loop, clustered_vliw(4), equivalent_k=4)
        validate_schedule(compiled.result)
        assert compiled.allocation is not None
        assert compiled.allocation.fits
        report = verify_compiled(compiled, iterations=6)
        assert report.ok, report.all_problems
        program = build_program(compiled.result, compiled.allocation)
        assert program.kernel_ops == len(compiled.result.ddg)


class TestCrossChecks:
    @pytest.mark.parametrize("clusters", [2, 4, 6, 8])
    def test_ipc_never_exceeds_machine_width(self, clusters):
        loop = make_kernel("fir_filter", taps=8)
        compiled = compile_for(
            loop, clustered_vliw(clusters), equivalent_k=clusters
        )
        assert compiled.ipc <= 3 * clusters

    def test_clustered_ii_at_least_unclustered(self):
        # DMS solves a strictly more constrained problem.
        for name in ("fir_filter", "iir_biquad", "rgb_to_yuv"):
            loop = make_kernel(name)
            unclustered = compile_for(loop, unclustered_vliw(4), equivalent_k=4)
            clustered = compile_for(loop, clustered_vliw(4), equivalent_k=4)
            assert clustered.result.ii >= unclustered.result.ii

    def test_register_pressure_grows_with_width(self):
        loop = make_kernel("rgb_to_yuv")
        narrow = compile_for(loop, unclustered_vliw(1), equivalent_k=1)
        wide = compile_for(loop, unclustered_vliw(6), equivalent_k=6)
        # The paper's premise: wide unclustered machines need much more
        # central register storage (overlapped iterations).
        assert register_pressure(wide.result) >= register_pressure(narrow.result)

    def test_assembly_roundtrip_mentions_all_clusters(self):
        loop = make_kernel("fir_filter", taps=8)
        compiled = compile_for(loop, clustered_vliw(4), equivalent_k=4)
        text = assembly_for(compiled.result, compiled.allocation)
        used = {p.cluster for p in compiled.result.placements.values()}
        for cluster in used:
            assert f"c{cluster}." in text

    def test_oracle_span_matches_static_cycles(self):
        for name in ("dot_product", "stencil3", "complex_multiply"):
            loop = make_kernel(name)
            compiled = compile_for(loop, clustered_vliw(3), equivalent_k=3)
            iterations = 12
            report = verify_compiled(compiled, iterations).oracle
            assert report.ok, report.problems
            assert report.cycles_model == compiled.result.cycles(iterations)
            # Measured makespan within one drain latency of the model.
            assert abs(report.cycles_model - report.cycles_span) <= 12
