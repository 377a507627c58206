"""Miscellaneous edge cases across modules."""

import pytest

from repro import errors
from repro.errors import IIOverflowError, ReproError
from repro.experiments import FigureData
from repro.ir.transforms import single_use_ddg
from repro.machine import clustered_vliw, unclustered_vliw
from repro.codegen import build_program, render_program
from repro.scheduling import TwoPhaseScheduler

from .conftest import build_fanout_loop


class TestErrorHierarchy:
    def test_every_error_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj not in (ReproError, Exception):
                    assert issubclass(obj, ReproError), name

    def test_ii_overflow_carries_context(self):
        err = IIOverflowError("my_loop", 42)
        assert err.loop_name == "my_loop"
        assert err.max_ii == 42
        assert "my_loop" in str(err)


class TestFigureDataEdges:
    def figure(self):
        return FigureData(
            "f", "title", "x", [1.0, 2.0], {"a": [3.0, 4.0], "b": [5.0, 6.0]}
        )

    def test_series_value_unknown_x(self):
        with pytest.raises(ValueError):
            self.figure().series_value("a", 9.0)

    def test_series_value_unknown_label(self):
        with pytest.raises(KeyError):
            self.figure().series_value("zzz", 1.0)

    def test_render_precision(self):
        text = self.figure().render_table(precision=0)
        assert "3" in text and "3.00" not in text


class TestCodegenForOtherSchedulers:
    def test_two_phase_program_builds(self):
        loop = build_fanout_loop(consumers=5)
        result = TwoPhaseScheduler(clustered_vliw(4)).schedule(
            single_use_ddg(loop.ddg)
        )
        program = build_program(result)
        assert program.kernel_ops == len(result.ddg)
        assert "kernel:" in render_program(program)


class TestMachineDescriptions:
    def test_describe_unclustered(self):
        text = unclustered_vliw(2).describe()
        assert "unclustered" in text

    def test_paper_cluster_range(self):
        from repro.machine import PAPER_CLUSTER_RANGE

        assert PAPER_CLUSTER_RANGE == tuple(range(1, 11))
