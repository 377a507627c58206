"""determinism fixture: every line with an EXPECT marker must fire.

Never imported — only parsed by the lint engine under a config that puts
this file on the determinism paths.
"""

import random
import time
import uuid as uid

import numpy as np
from time import perf_counter as tick


def timestamps():
    first = time.time()  # EXPECT: determinism
    second = tick()  # ok: perf_counter is deadline material, not banned
    return first, second


def deadlines(timeout):
    # Wall clocks stay banned outright (an NTP step fires deadlines
    # early or hangs them, and a timestamp has no legitimate use on a
    # bit-identity path).  The monotonic clocks are *not* syntactically
    # banned any more: deadline arithmetic never reaches a result
    # value, and the flows that do are reported at their sinks.
    expires = time.time() + timeout  # EXPECT: determinism
    remaining = time.monotonic() - timeout  # ok: deadline arithmetic
    while time.monotonic_ns() < remaining:  # ok: comparison only
        pass
    return expires


def randomness(seed):
    ambient = random.random()  # EXPECT: determinism
    shared = np.random.rand(4)  # EXPECT: determinism
    token = uid.uuid4()  # EXPECT: determinism
    rng = np.random.default_rng(seed)  # ok: explicitly seeded generator
    drawn = rng.standard_normal(4)
    local = random.Random(seed).random()  # ok: seeded generator object
    return ambient, shared, token, drawn, local


def orderings(ops):
    by_identity = sorted(ops, key=id)  # EXPECT: determinism
    salted = hash("node")  # EXPECT: determinism
    for op in {o.dest for o in ops}:  # EXPECT: determinism
        salted += op
    for op in sorted({o.dest for o in ops}):  # ok: sorted before iterating
        salted -= op
    by_name = sorted(ops, key=lambda o: o.dest)  # ok: value-based key
    return by_identity, salted, by_name
