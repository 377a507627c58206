"""determinism fixture, flow half: nondeterministic flows into hash sinks.

Never imported — only parsed under a config that puts this file on the
determinism paths.  Most marked lines are *sinks* reached by a tracked
value (the flow check reports where the value lands, not where it was
born); wall-clock and global-RNG source lines are marked too, because
the call-site check reports the sampling site itself.  The unmarked
flows are the ones a call-site ban alone would force suppressions
for: deadline arithmetic on a monotonic clock that only feeds
comparisons, and explicitly seeded generators.
"""

import hashlib
import random
import time


def stamp_ns():
    return time.monotonic_ns()  # ok here: flagged only if it lands in a sink


def digest(payload):
    return hashlib.sha256(payload).hexdigest()


def canonical(value):
    return ("%r" % value).encode()


def direct_flow(name):
    started = time.monotonic()
    tag = f"{started}:{name}"
    return hashlib.sha256(tag.encode())  # EXPECT: determinism


def wall_clock_flow(name):
    now = time.time()  # EXPECT: determinism
    return hashlib.sha256(f"{now}:{name}".encode())  # EXPECT: determinism


def through_helpers(name):
    # Interprocedural, both directions: stamp_ns() *returns* taint, and
    # digest() *forwards* its parameter into a sink.
    sample = stamp_ns()
    key = canonical(sample)
    return digest(key)  # EXPECT: determinism


def hash_object_flow(items):
    state = hashlib.blake2b()
    started = time.monotonic()
    for item in items:
        state.update(canonical(item))  # ok: item is run-stable
    state.update(canonical(started))  # EXPECT: determinism
    return state.hexdigest()


def rng_flow():
    draw = random.random()  # EXPECT: determinism
    return hashlib.sha256(canonical(draw))  # EXPECT: determinism


def deadline_only(timeout, work):
    # The suppression-pressure case the syntactic ban used to hit:
    # monotonic deadline math whose truthiness never reaches a value.
    deadline = time.monotonic() + timeout
    done = []
    while time.monotonic() < deadline:
        done.append(work())
    return hashlib.sha256(canonical(len(done)))  # ok: count, not clock


def seeded_flow(seed, name):
    rng = random.Random(seed)
    salt = rng.random()  # ok: explicitly seeded generator is run-stable
    return hashlib.sha256(canonical((salt, name)))  # ok: seeded values
