"""Failure injection: the oracle must catch what the checker catches.

Every sabotage below produces a schedule the static checker would
reject; the execution oracle must independently detect it (different
code path, different evidence), proving the two validators are not just
mirrors of the schedulers' own bookkeeping.
"""

import pytest

from repro.errors import ValidationError
from repro.ir.transforms import single_use_ddg
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling import (
    DistributedModuloScheduler,
    IterativeModuloScheduler,
    check_schedule,
)
from repro.scheduling.result import ScheduleResult
from repro.scheduling.schedule import Placement
from repro.validate import verify_compiled
from repro.workloads import make_kernel

from .conftest import build_reduction_loop, compiled_from


def rebuild(compiled, placements):
    result = compiled.result
    return compiled_from(
        compiled.loop,
        ScheduleResult(**{**result.__dict__, "placements": placements}),
    )


@pytest.fixture()
def clustered_compiled():
    loop = make_kernel("fir_filter", taps=5)
    result = DistributedModuloScheduler(clustered_vliw(4)).schedule(
        single_use_ddg(loop.ddg)
    )
    return compiled_from(loop, result)


def swapped_producer_consumer(compiled):
    result = compiled.result
    edge = next(
        e
        for e in result.ddg.edges()
        if e.is_flow and e.omega == 0 and e.src != e.dst
    )
    placements = dict(result.placements)
    placements[edge.src], placements[edge.dst] = (
        placements[edge.dst],
        placements[edge.src],
    )
    return rebuild(compiled, placements)


class TestInjections:
    def test_swapped_producer_consumer_times(self, clustered_compiled):
        broken = swapped_producer_consumer(clustered_compiled)
        report = verify_compiled(broken, 4)
        assert not report.ok
        assert not check_schedule(broken.result).ok

    def test_delayed_producer_starves_consumer(self):
        # Delaying a producer past its consumer's issue leaves the
        # consumer reading a value that does not exist yet; the oracle
        # sees an empty (or misordered) queue.
        loop = build_reduction_loop()
        result = IterativeModuloScheduler(unclustered_vliw(2)).schedule(
            loop.ddg.copy()
        )
        compiled = compiled_from(loop, result)
        edge = next(
            e
            for e in result.ddg.edges()
            if e.is_flow and e.omega == 0 and e.src != e.dst
        )
        placements = dict(result.placements)
        old = placements[edge.src]
        placements[edge.src] = Placement(
            old.time + 5 * result.ii + 1, old.cluster
        )
        report = verify_compiled(rebuild(compiled, placements), 6)
        assert not report.ok

    def test_cluster_teleport_breaks_fifo_routing(self, clustered_compiled):
        result = clustered_compiled.result
        # Move a producer two hops away: its consumers' queues go silent.
        edge = next(
            e
            for e in result.ddg.edges()
            if e.is_flow and e.src != e.dst
        )
        placements = dict(result.placements)
        old = placements[edge.src]
        placements[edge.src] = Placement(
            old.time, (old.cluster + 2) % result.machine.n_clusters
        )
        broken = rebuild(clustered_compiled, placements)
        # Static checker flags the communication conflict.
        assert not check_schedule(broken.result).ok

    def test_failed_report_raises(self, clustered_compiled):
        broken = swapped_producer_consumer(clustered_compiled)
        with pytest.raises(ValidationError):
            verify_compiled(broken, 4).raise_if_failed()

    def test_untouched_schedule_stays_clean(self, clustered_compiled):
        report = verify_compiled(clustered_compiled, 8)
        assert report.ok, report.all_problems
        assert check_schedule(clustered_compiled.result).ok
