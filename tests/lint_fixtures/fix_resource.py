"""resource-hygiene fixture: acquisition sites and their releases."""

import contextlib
import json
import subprocess
from concurrent.futures import ThreadPoolExecutor


def orphaned(path):
    return json.load(open(path))  # EXPECT: resource-hygiene


def leaked(path):
    handle = open(path)  # EXPECT: resource-hygiene
    return handle.read()


def stray_pool(jobs):
    workers = ThreadPoolExecutor(max_workers=2)  # EXPECT: resource-hygiene
    return [workers.submit(str, job) for job in jobs]


def with_block(path):
    with open(path) as handle:  # ok: context manager
        return handle.read()


def closed_in_finally(path):
    handle = open(path)  # ok: closed below
    try:
        return handle.read()
    finally:
        handle.close()


def ownership_escapes(path):
    handle = open(path)  # ok: returned; the caller owns it now
    return handle


def handed_off(path, registry):
    handle = open(path)  # ok: passed on; the registry owns it now
    registry.track(handle)


class Holder:
    def __init__(self, path):
        self.handle = open(path)  # ok: stored; close() owns the lifetime

    def close(self):
        self.handle.close()


def waited_child():
    proc = subprocess.Popen(["true"])  # ok: waited below
    proc.wait()
    return proc.returncode


def stacked_pool(jobs):
    with contextlib.ExitStack() as stack:
        workers = stack.enter_context(ThreadPoolExecutor(max_workers=2))  # ok: the stack closes it
        return [workers.submit(str, job) for job in jobs]
