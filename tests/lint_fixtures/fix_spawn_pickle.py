"""pool-safety fixture: pool jobs that cannot cross the spawn boundary.

Never imported — only parsed.  Spawn workers re-import their work
function by module + qualname; the marked submissions hand over
something that lookup cannot find (closures, lambdas, methods of local
classes).  Thread pools and unresolvable receivers stay silent: the
pickling contract is specific to the *process* boundary, and unknown
callables get the benefit of the doubt.
"""

import functools
from concurrent.futures import ThreadPoolExecutor

from repro.pools import spawn_pool


def module_level(x):
    return x + 1


as_lambda = lambda x: x * x


def submit_module_fn(values):
    with spawn_pool(2) as pool:
        return pool.submit(module_level, values)  # ok: module-level def


def submit_closure(values):
    offset = len(values)

    def shifted(x):
        return x + offset

    with spawn_pool(2) as pool:
        return pool.submit(shifted, 1)  # EXPECT: pool-safety


def submit_local_lambda():
    fn = lambda x: x
    with spawn_pool(2) as pool:
        return pool.submit(fn, 1)  # EXPECT: pool-safety


def submit_module_lambda(values):
    with spawn_pool(2) as pool:
        return pool.map(as_lambda, values)  # EXPECT: pool-safety


def submit_local_class_method():
    class Worker:
        def run(self):
            return 1

    worker = Worker()
    with spawn_pool(2) as pool:
        return pool.submit(worker.run)  # EXPECT: pool-safety


def submit_partial_of_closure(values):
    def combine(a, b):
        return a + b

    with spawn_pool(2) as pool:
        return pool.submit(functools.partial(combine, values))  # EXPECT: pool-safety


async def run_in_executor_closure(loop):
    def job():
        return 1

    with spawn_pool(2) as pool:
        return await loop.run_in_executor(pool, job)  # EXPECT: pool-safety


def thread_pool_is_exempt(values):
    with ThreadPoolExecutor() as workers:
        return workers.submit(lambda: values)  # ok: nothing pickles across a thread


def unknown_receiver(executor_like):
    def local(x):
        return x

    return executor_like.submit(local, 1)  # ok: receiver is not provably a pool
