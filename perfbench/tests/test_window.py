"""The timed window: what each kind of workload counts as elapsed time."""

import time

from perfbench.workloads import DistSweep, Fig4Sweep, ServeMixed


def _window(cls, tmp_path, blocked):
    workload = cls(1, 1.0, tmp_path, None)
    workload.open_window()
    time.sleep(blocked)
    workload.close_window()
    return workload


def test_service_window_counts_blocked_time(tmp_path):
    # A sleep stands in for an fsync, a lock or a poll interval: it must
    # reach the service workloads' window and latency scale.
    for cls in (ServeMixed, DistSweep):
        workload = _window(cls, tmp_path, 0.3)
        assert workload.elapsed >= 0.3 - workload.stolen - 0.01
        assert workload.elapsed <= workload.wall_elapsed
        assert 0 < workload.time_scale <= 1.0


def test_in_process_window_counts_busy_time_only(tmp_path):
    workload = _window(Fig4Sweep, tmp_path, 0.3)
    assert workload.elapsed < 0.1
    assert workload.time_scale == 1.0
