"""Tests for modulo variable expansion analysis."""

import pytest

from repro.machine import unclustered_vliw
from repro.registers import mve_report, mve_summary, register_pressure
from repro.scheduling import IterativeModuloScheduler
from repro.workloads import make_kernel

from .conftest import build_reduction_loop, build_stream_loop, compile_for


def result_for(loop, k=2):
    return IterativeModuloScheduler(unclustered_vliw(k)).schedule(loop.ddg.copy())


class TestDegrees:
    def test_every_consumed_value_has_a_degree(self):
        result = result_for(build_stream_loop())
        report = mve_report(result)
        consumed = {
            s.producer
            for op in result.ddg.operations()
            for s in op.srcs
            if not s.is_external
        }
        assert set(report.degrees) == consumed

    def test_degree_formula(self):
        result = result_for(build_stream_loop())
        report = mve_report(result)
        ii = result.ii
        for producer, degree in report.degrees.items():
            birth = result.placements[producer].time + result.latencies.latency(
                result.ddg.op(producer).opcode
            )
            last_read = max(
                result.placements[c.op_id].time + s.omega * ii
                for c in result.ddg.operations()
                for s in c.srcs
                if not s.is_external and s.producer == producer
            )
            assert degree == max(0, last_read - birth) // ii + 1

    def test_degrees_at_least_one(self):
        result = result_for(build_reduction_loop(), k=3)
        report = mve_report(result)
        assert all(d >= 1 for d in report.degrees.values())

    def test_unroll_variants_ordering(self):
        result = result_for(build_reduction_loop(), k=3)
        report = mve_report(result)
        assert report.kernel_unroll_max <= report.kernel_unroll_lcm
        assert report.kernel_unroll_lcm % report.kernel_unroll_max == 0 or True
        assert report.total_registers >= report.n_values

    def test_carried_lifetimes_set_the_expansion_degree(self):
        # An 8-tap FIR reuses each sample for 7 further iterations: its
        # lifetime spans ~7*II regardless of II, so MVE must unroll the
        # kernel ~8x on a conventional RF — the cost queues avoid.
        loop = make_kernel("fir_filter", taps=8)
        report = mve_report(
            compile_for(loop, unclustered_vliw(1), unroll=1).result
        )
        assert report.kernel_unroll_max == 8

    def test_wide_machines_need_more_registers(self):
        loop = make_kernel("fir_filter", taps=8)
        narrow = mve_report(
            compile_for(loop, unclustered_vliw(1), unroll=1).result
        )
        wide = mve_report(
            compile_for(loop, unclustered_vliw(6), unroll=1).result
        )
        assert wide.total_registers >= narrow.total_registers

    def test_registers_bound_maxlive(self):
        # MVE assigns one register per (value, live instance): at least
        # the schedule's MaxLive.
        result = result_for(build_stream_loop(), k=3)
        report = mve_report(result)
        assert report.total_registers >= register_pressure(result)


class TestSummary:
    def test_summary_text(self):
        result = result_for(build_stream_loop())
        text = mve_summary([mve_report(result)])
        assert "kernel unroll" in text

    def test_empty(self):
        assert "no MVE reports" in mve_summary([])
