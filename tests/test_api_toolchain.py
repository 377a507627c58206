"""Tests for the pass registry, toolchain pipelines and reports."""

import pytest

from repro.api import (
    DEFAULT_PASSES,
    PASS_REGISTRY,
    CompilationRequest,
    Pass,
    SchedulePass,
    Toolchain,
    get_pass,
    register_pass,
)
from repro.errors import SchedulingError, ToolchainError
from repro.ir.transforms import unroll_loop
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint

from .conftest import build_reduction_loop, build_stream_loop


class TestRegistry:
    def test_builtin_passes_registered(self):
        for name in ("unroll", "single_use", "schedule", "allocate"):
            assert get_pass(name).name == name
        # The scheduler is a request field and assembly is
        # codegen.assembly_for: the registry holds the paper's flow only.
        assert sorted(PASS_REGISTRY) == sorted(DEFAULT_PASSES)

    def test_scheduler_choices_are_the_schedule_pass_table(self):
        from repro.api import SCHEDULER_CHOICES
        from repro.config import SEARCH_POLICY_NAMES
        from repro.scheduling.search import SEARCH_POLICIES

        assert SCHEDULER_CHOICES == tuple(SchedulePass._SCHEDULERS)
        assert SEARCH_POLICY_NAMES == tuple(SEARCH_POLICIES)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ToolchainError, match="unknown pass"):
            get_pass("no_such_pass")

    def test_duplicate_registration_rejected(self):
        class Dup(Pass):
            name = "unroll"

            def run(self, ctx):  # pragma: no cover - never run
                pass

        with pytest.raises(ToolchainError, match="already registered"):
            register_pass(Dup())

    def test_explicit_override_allowed_and_reversible(self):
        original = PASS_REGISTRY["unroll"]

        class Override(Pass):
            name = "unroll"

            def run(self, ctx):  # pragma: no cover - never run
                pass

        try:
            register_pass(Override(), replace=True)
            assert isinstance(get_pass("unroll"), Override)
        finally:
            register_pass(original, replace=True)
        assert get_pass("unroll") is original

    def test_anonymous_pass_rejected(self):
        class NoName(Pass):
            def run(self, ctx):  # pragma: no cover - never run
                pass

        with pytest.raises(ToolchainError, match="no name"):
            register_pass(NoName())


class TestComposition:
    def test_default_order_matches_paper_flow(self):
        assert Toolchain.default().pass_names == DEFAULT_PASSES

    def test_custom_pass_in_a_pipeline(self):
        class NotedSchedule(SchedulePass):
            name = "noted_schedule"

            def run(self, ctx):
                super().run(ctx)
                ctx.note(f"noted: {ctx.result.ii_trajectory}")

        chain = Toolchain(["unroll", "single_use", NotedSchedule(), "allocate"])
        assert chain.pass_names == (
            "unroll",
            "single_use",
            "noted_schedule",
            "allocate",
        )
        report = chain.compile(
            CompilationRequest(loop=build_stream_loop(), machine=unclustered_vliw(2))
        )
        assert report.diagnostics[-2] == f"noted: {report.ii_trajectory}"

    def test_without_pass_removes(self):
        # A pipeline built without the allocate pass schedules but
        # leaves the queues unallocated.
        request = CompilationRequest(
            loop=build_stream_loop(), machine=clustered_vliw(2)
        )
        chain = Toolchain(["unroll", "single_use", "schedule"])
        assert "allocate" not in chain.pass_names
        report = chain.compile(request)
        assert report.compiled.allocation is None
        assert [t.pass_name for t in report.timings] == list(chain.pass_names)
        assert Toolchain.default().compile(request).compiled.allocation is not None

    def test_unknown_slot_rejected(self):
        with pytest.raises(ToolchainError, match="unknown pass 'nope'"):
            Toolchain(["unroll", "nope", "schedule"])
        with pytest.raises(ToolchainError, match="not a pass"):
            Toolchain(["unroll", 42, "schedule"])

    def test_duplicate_pipeline_names_rejected(self):
        with pytest.raises(ToolchainError, match="duplicate"):
            Toolchain(["unroll", "unroll", "schedule"])

    def test_pipeline_runs_passes_in_order(self):
        calls = []

        class Probe(Pass):
            name = "probe"

            def __init__(self, log):
                self._log = log

            def run(self, ctx):
                self._log.append((self.name, ctx.result is not None))

        chain = Toolchain(["unroll", "single_use", "schedule", Probe(calls), "allocate"])
        request = CompilationRequest(
            loop=build_stream_loop(), machine=unclustered_vliw(2)
        )
        report = chain.compile(request)
        # The probe ran exactly once, after scheduling.
        assert calls == [("probe", True)]
        assert [t.pass_name for t in report.timings] == [
            "unroll",
            "single_use",
            "schedule",
            "probe",
            "allocate",
        ]

    def test_pipeline_without_scheduler_rejected(self):
        chain = Toolchain(["unroll", "single_use"])
        request = CompilationRequest(
            loop=build_stream_loop(), machine=unclustered_vliw(1)
        )
        with pytest.raises(ToolchainError, match="no schedule"):
            chain.compile(request)


class TestCompile:
    # IMS ignores communication, so its schedules allocate only on the
    # unclustered machine.
    @pytest.mark.parametrize(
        "scheduler, machine",
        [
            (None, clustered_vliw(4)),
            ("ims", unclustered_vliw(4)),
            ("two_phase", clustered_vliw(4)),
        ],
        ids=["default", "ims", "two_phase"],
    )
    def test_report_carries_timings_trajectory_diagnostics(self, scheduler, machine):
        report = Toolchain.default().compile(
            CompilationRequest(
                loop=build_reduction_loop(),
                machine=machine,
                equivalent_k=4,
                scheduler=scheduler,
            )
        )
        assert [t.pass_name for t in report.timings] == list(DEFAULT_PASSES)
        assert all(t.seconds >= 0 for t in report.timings)
        assert report.total_seconds == pytest.approx(
            sum(t.seconds for t in report.timings)
        )
        # Trajectory: the distinct II candidates the search visited,
        # ending at the achieved II.  A galloping policy may overshoot
        # and skip rungs, so the walk is not necessarily contiguous —
        # but it is duplicate-free and every entry is a real candidate.
        result = report.result
        assert report.ii_trajectory[-1] == result.ii
        assert len(report.ii_trajectory) == result.stats.ii_attempts
        assert len(set(report.ii_trajectory)) == len(report.ii_trajectory)
        assert all(ii >= result.mii for ii in report.ii_trajectory)
        assert report.ii_trajectory == tuple(result.ii_trajectory)
        assert len(report.diagnostics) == len(DEFAULT_PASSES)
        assert not report.cache_hit

    def test_report_to_dict_is_json_shaped(self):
        import json

        report = Toolchain.default().compile(
            CompilationRequest(loop=build_stream_loop(), machine=unclustered_vliw(2))
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scheduler"] == "ims"
        assert payload["ii"] == report.result.ii
        assert "timings_ms" in payload

    def test_unrolled_loop_rejected(self):
        loop = unroll_loop(build_stream_loop(), 2)
        request = CompilationRequest(loop=loop, machine=unclustered_vliw(2))
        with pytest.raises(SchedulingError, match="already unrolled"):
            Toolchain.default().compile(request)

    def test_forced_scheduler_overrides_machine_shape(self):
        # Figure 4's k=1 point: DMS degenerates on the single-cluster
        # machine but must still be labelled "dms".
        report = Toolchain.default().compile(
            CompilationRequest(
                loop=build_stream_loop(),
                machine=clustered_vliw(1),
                scheduler="dms",
            )
        )
        assert report.result.scheduler == "dms"
        auto = Toolchain.default().compile(
            CompilationRequest(loop=build_stream_loop(), machine=clustered_vliw(1))
        )
        assert auto.result.scheduler == "ims"

    def test_two_phase_request_changes_scheduler(self):
        report = Toolchain.default().compile(
            CompilationRequest(
                loop=build_stream_loop(),
                machine=clustered_vliw(4),
                equivalent_k=4,
                scheduler="two_phase",
            )
        )
        assert report.result.scheduler == "two-phase"

    def test_invalid_request_knobs_rejected(self):
        loop = build_stream_loop()
        with pytest.raises(ToolchainError, match="unknown scheduler"):
            CompilationRequest(
                loop=loop, machine=unclustered_vliw(1), scheduler="vliw"
            )
        with pytest.raises(ToolchainError, match="unroll"):
            CompilationRequest(loop=loop, machine=unclustered_vliw(1), unroll=0)
