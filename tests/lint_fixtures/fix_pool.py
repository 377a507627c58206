"""pool-safety fixture: start methods and picklability of pool jobs."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context

from repro.pools import spawn_pool


def _double(item):
    return item * 2


def fork_default(jobs):
    with ProcessPoolExecutor(max_workers=2) as pool:  # EXPECT: pool-safety
        return list(pool.map(_double, jobs))


def fork_explicit(jobs):
    ctx = get_context("fork")  # EXPECT: pool-safety
    pool = ProcessPoolExecutor(max_workers=2, mp_context=ctx)
    try:
        return list(pool.map(_double, jobs))
    finally:
        pool.shutdown()


def lambda_job(jobs):
    with spawn_pool(2) as pool:
        return list(pool.map(lambda item: item * 2, jobs))  # EXPECT: pool-safety


def nested_job(jobs):
    def helper(item):
        return item * 2

    with spawn_pool(2) as pool:
        return [pool.submit(helper, job) for job in jobs]  # EXPECT: pool-safety


def spawn_ok(jobs):
    with spawn_pool(2) as pool:  # ok: spawn context pinned
        return list(pool.map(_double, jobs))


def threads_ok(jobs):
    with ThreadPoolExecutor(max_workers=2) as workers:
        return list(workers.map(lambda item: item * 2, jobs))  # ok: no pickling
