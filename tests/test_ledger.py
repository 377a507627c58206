"""State-machine test of the work ledger and its journal.

Hypothesis drives :class:`~repro.service.ledger.Ledger` directly, with
an injected clock and a real journal file, through arbitrary
interleavings of submit (``wait=true`` and ``wait=false`` ``/compile``
groups and sweep groups, sharing keys), claim, heartbeat, complete
(partial, duplicate and orphan), lease expiry, a local pool crash and a
restart that replays the journal into a fresh ledger.  A plain dict
model tracks what each entry must be, and after every step the ledger
must agree with it:

* each entry reaches a terminal state exactly once;
* an entry is durable exactly when a sweep or a ``wait=false`` compile
  holds it, and a restart rebuilds exactly the durable ones;
* the requeue budget survives a restart;
* every result is bit-identical to a direct compile.
"""

import itertools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import Toolchain, content_hash
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.service import ledger as lg
from repro.service.jobs import parse_compile_payload
from repro.service.journal import JobJournal
from repro.service.ledger import COMPILE_REQUEUES, Group, Ledger

PAYLOADS = [
    {"kernel": name, "clusters": 2, "config": {"search": "ladder"}}
    for name in ("daxpy", "vector_add", "dot_product")
]

#: The requeue budget of the sweep groups the machine submits.
SWEEP_REQUEUES = 2

#: Sweep lease length on the injected clock.
LEASE = 1.0

_REPORTS = {}


def reports():
    """key -> (payload, report, fingerprint) of a direct compile, once."""
    if not _REPORTS:
        toolchain = Toolchain.default()
        for payload in PAYLOADS:
            request = parse_compile_payload(payload).request
            report = toolchain.compile(request)
            key = content_hash(request)
            _REPORTS[key] = (payload, report, schedule_fingerprint(report.result))
    return _REPORTS


class Recording(Group):
    """A group that records the terminal notifications it receives."""

    terminal_seen = None  # entry -> count, shared per machine (keeps entries alive)

    def notify(self, entry, event):
        if event in lg.TERMINAL and self is entry.groups[0]:
            self.terminal_seen[entry] = self.terminal_seen.get(entry, 0) + 1


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self, directory):
        super().__init__()
        self.path = directory / f"journal-{next(LedgerMachine.runs)}.jsonl"
        self.keys = sorted(reports())
        self.now = 0.0
        self.cache = {}  # the durable result store: key -> report
        self.terminal_seen = {}
        self.group_no = itertools.count()
        self.lost = []  # leases lost, whose worker may still complete
        # The model: key -> {"state", "requeues", "budget", "local", "lease",
        # "groups"}, the last the keys of the groups holding the entry.
        self.model = {}
        self.groups = {}  # group key -> (its entries, the group)
        self.durable = set()  # keys of the durable /compile groups
        self.journal = JobJournal(self.path, fsync=False)
        self.ledger = Ledger(clock=lambda: self.now)

    runs = itertools.count()

    def teardown(self):
        self.journal.close()

    # -- helpers ---------------------------------------------------------

    def write(self, records):
        lg.write(self.journal, records)

    def group(self, key, budget, local, durable=True):
        group = Recording(key, budget, local=local, durable=durable)
        group.terminal_seen = self.terminal_seen
        return group

    def attach(self, key, budget, local, group_key):
        entry = self.model.get(key)
        if key in self.cache:  # a durable result: the group starts done
            assert entry["state"] == "done"
        elif entry is None or entry["state"] in lg.TERMINAL:
            self.model[key] = {"state": "pending", "requeues": 0, "budget": budget,
                               "local": local, "lease": None, "groups": {group_key}}
        else:
            entry["budget"] = max(entry["budget"], budget)
            entry["local"] = entry["local"] or local
            entry["groups"].add(group_key)

    def is_durable(self, entry):
        """Whether a sweep or a durable /compile holds the model *entry*."""
        return any(key.startswith("sweep:") or key in self.durable for key in entry["groups"])

    def lose(self, lease, keys=None):
        """Model the loss of *lease* (or of *keys* out of it)."""
        for key, entry in self.model.items():
            if entry["lease"] != lease.id or (keys is not None and key not in keys):
                continue
            entry["requeues"] += 1
            entry["lease"] = None
            over = entry["requeues"] > entry["budget"]
            entry["state"] = "quarantined" if over else "pending"
        self.write([self.ledger.lose(lease, "test", keys)])
        self.lost.append(lease)

    def finish(self, lease_id, keys, fail):
        """Complete *keys*: the first outcome wins; returns finished entries."""
        finished = []
        for key in keys:
            entry = self.ledger.live.get(key)
            if entry is None:  # a duplicate, or dropped by a restart
                assert key not in self.model or self.model[key]["state"] in lg.TERMINAL
                continue
            _payload, report, _fingerprint = reports()[key]
            if fail and key == keys[0]:
                self.model[key].update(state="failed", lease=None)
                assert self.ledger.finish(entry, "failed", "w", error="boom")
            else:
                self.cache[key] = report
                self.model[key].update(state="done", lease=None)
                assert self.ledger.finish(entry, "done", "w", report)
            finished.append(entry)
        # As the daemon does: only a durable entry's outcome is journaled.
        durable = [entry for entry in finished if self.is_durable(self.model[entry.key])]
        self.write([lg.finished_record(lease_id, lg.outcomes(durable))])

    # -- rules -----------------------------------------------------------

    @rule(index=st.integers(0, len(PAYLOADS) - 1), wait=st.booleans())
    def submit_compile(self, index, wait):
        key = self.keys[index]
        if key in self.cache:
            return  # served from the cache, as the daemon does
        live = self.groups.get(key)
        if live is not None and not live[1].finished:
            # Coalesced onto the live job: wait=false makes it durable.
            if not wait and not live[1].durable:
                live[1].durable = True
                self.durable.add(key)
                self.write([live[1].submitted_record()])
            return
        group = self.group(key, COMPILE_REQUEUES, local=True, durable=not wait)
        (self.durable.discard if wait else self.durable.add)(key)
        self.attach(key, COMPILE_REQUEUES, True, key)
        self.write(self.ledger.submit(group, [(key, reports()[key][0])]))
        self.groups[key] = (group.entries, group)

    @rule(picks=st.lists(st.integers(0, len(PAYLOADS) - 1), min_size=1, max_size=4))
    def submit_sweep(self, picks):
        keys = [self.keys[i] for i in picks]
        group = self.group(f"sweep:{next(self.group_no)}", SWEEP_REQUEUES, local=False)
        for key in keys:
            self.attach(key, SWEEP_REQUEUES, False, group.key)
        durable = {k: self.cache[k] for k in keys if k in self.cache}
        self.write(self.ledger.submit(
            group, [(k, reports()[k][0]) for k in keys], durable
        ))
        self.groups[group.key] = (group.entries, group)

    @rule(data=st.data(), count=st.integers(1, 3))
    def claim(self, data, count):
        """The pool claims /compile entries, a sweep worker its sweep's."""
        sweeps = sorted(key for key in self.groups if key.startswith("sweep:"))
        through = data.draw(st.sampled_from(["pool"] + sweeps))
        if through == "pool":
            count = 1
            lease = self.ledger.claim("pool", count, self.ledger.local)

            def claimable(entry):
                return entry["local"]
        else:
            lease = self.ledger.claim("w", count, self.groups[through][1].queue, LEASE, through)

            def claimable(entry):
                return through in entry["groups"]
        picks = [] if lease is None else [self.ledger.live[key] for key in lease.keys]
        for entry in picks:
            assert self.model[entry.key]["state"] == "pending"
            assert claimable(self.model[entry.key])
            self.model[entry.key].update(state="leased", lease=lease.id)
        rest = [self.ledger.live[key] for key, entry in self.model.items()
                if entry["state"] == "pending" and claimable(entry)]
        # A claim takes the first entries in order, as many as it can.
        assert len(picks) == count or not rest
        assert all(entry.order > pick.order for entry in rest for pick in picks)

    @precondition(lambda self: self.ledger.leases)
    @rule(data=st.data())
    def heartbeat(self, data):
        lease_id = data.draw(st.sampled_from(sorted(self.ledger.leases)))
        lease = self.ledger.leases[lease_id]
        assert self.ledger.heartbeat(lease_id, lease.worker) is lease
        assert self.ledger.heartbeat(lease_id, "someone-else") is None

    @precondition(lambda self: self.ledger.leases)
    @rule(data=st.data(), fail=st.booleans())
    def complete(self, data, fail):
        lease_id = data.draw(st.sampled_from(sorted(self.ledger.leases)))
        lease = self.ledger.leases[lease_id]
        reported = data.draw(st.lists(st.sampled_from(lease.keys), unique=True))
        self.ledger.release(lease)
        self.finish(lease_id, reported, fail)
        # A partial completion loses the lease on what it left out.
        self.lose(lease, [key for key in lease.keys if key not in reported])

    @precondition(lambda self: self.lost)
    @rule(data=st.data())
    def orphan_complete(self, data):
        lease = data.draw(st.sampled_from(self.lost))
        self.finish(lease.id, list(lease.keys), fail=False)

    @rule(seconds=st.sampled_from([0.3, 1.5]))
    def expire(self, seconds):
        self.now += seconds
        for lease in self.ledger.expired():
            self.lose(lease)

    @rule()
    def pool_crash(self):
        for lease in [l for l in self.ledger.leases.values() if l.worker == "pool"]:
            self.lose(lease)

    @rule()
    def restart(self):
        """Forget everything in memory; rebuild the ledger from the journal."""
        self.journal.close()
        self.journal = JobJournal(self.path, fsync=False)
        state, _ = self.journal.replay(repair=True)
        self.ledger = Ledger(clock=lambda: self.now)
        self.groups = {}
        records = []
        for replayed in state.live():
            group = self.group(replayed.key, SWEEP_REQUEUES if replayed.is_sweep
                               else COMPILE_REQUEUES, local=not replayed.is_sweep)
            items = [(key, reports()[key][0]) for key in replayed.keys]
            records += self.ledger.resume(group, items, replayed, state.requeues,
                                          self.cache.get)
            self.groups[group.key] = (group.entries, group)
        self.write(records)
        self.journal.compact()
        for key, entry in list(self.model.items()):
            if entry["state"] == "leased":
                entry.update(state="pending", lease=None)
            if entry["state"] == "quarantined":
                entry["state"] = "failed"  # journaled as a failure, if durable
            if entry["state"] != "pending":
                continue
            live = self.ledger.live.get(key)
            if not self.is_durable(entry):
                # Only wait=true compiles held it: nothing replays it.
                assert live is None, f"entry {key[:8]} replayed but never durable"
                del self.model[key]
                continue
            # No acknowledged entry is lost, and its budget survives.
            assert live is not None, f"entry {key[:8]} lost across restart"
            assert live.requeues == entry["requeues"]
            entry["groups"] = {g for g in entry["groups"] if g in self.groups}
            entry["local"] = any(not g.startswith("sweep:") for g in entry["groups"])
        self.durable &= set(self.groups)

    # -- invariants ------------------------------------------------------

    @invariant()
    def ledger_matches_model(self):
        for key, entry in self.model.items():
            live = self.ledger.live.get(key)
            if entry["state"] in lg.TERMINAL:
                assert live is None
                continue
            assert live is not None and live.state == entry["state"]
            assert live.requeues == entry["requeues"]
            assert live.durable == self.is_durable(entry)
        assert set(self.ledger.live) <= set(self.model)

    @invariant()
    def terminal_exactly_once(self):
        assert all(count == 1 for count in self.terminal_seen.values())

    @invariant()
    def results_are_bit_identical(self):
        for entries, _group in self.groups.values():
            for entry in entries:
                if entry.state == "done":
                    expected = reports()[entry.key][2]
                    assert schedule_fingerprint(entry.report.result) == expected


def test_ledger_state_machine(tmp_path):
    reports()
    run_state_machine_as_test(
        lambda: LedgerMachine(tmp_path),
        settings=settings(
            max_examples=150,
            stateful_step_count=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


class _Pool:
    """A ``data`` stand-in whose every draw picks the local pool."""

    @staticmethod
    def draw(_strategy):
        return "pool"


def test_requeues_before_a_compile_became_durable_survive_a_restart(tmp_path):
    # The interleaving the random walk rarely reaches: a wait=true
    # compile crashes the pool once, a wait=false submission makes it
    # durable, and the daemon restarts; the replayed entry keeps its
    # requeue count (the machine's restart rule asserts it).
    reports()
    machine = LedgerMachine(tmp_path)
    try:
        machine.submit_compile(0, wait=True)
        machine.claim(_Pool, 1)
        machine.pool_crash()
        machine.submit_compile(0, wait=False)
        machine.restart()
        assert machine.ledger.live[machine.keys[0]].requeues == 1
    finally:
        machine.teardown()


@pytest.mark.parametrize("crashes, state", [(1, "pending"), (2, "quarantined")])
def test_compile_entry_quarantines_on_its_second_crash(crashes, state):
    key = sorted(reports())[0]
    ledger = Ledger(clock=lambda: 0.0)
    ledger.submit(Group(key, COMPILE_REQUEUES, local=True), [(key, PAYLOADS[0])])
    entry = ledger.live[key]
    for _ in range(crashes):
        ledger.lose(ledger.claim("pool", 1, ledger.local), "worker crash")
    assert entry.state == state and entry.requeues == crashes


def test_detaching_a_shed_group_again_leaves_a_newer_entry_alone():
    # A shed /compile is detached when it is shed and again when the job
    # history trims it; by then a new submission may own the same key.
    key = sorted(reports())[0]
    ledger = Ledger(clock=lambda: 0.0)
    shed = Group(key, COMPILE_REQUEUES, local=True)
    ledger.submit(shed, [(key, PAYLOADS[0])])
    ledger.detach(shed)
    assert key not in ledger.live and not len(ledger.local)
    ledger.submit(Group(key, COMPILE_REQUEUES, local=True), [(key, PAYLOADS[0])])
    ledger.detach(shed)
    assert key in ledger.live and len(ledger.local) == 1


def test_a_non_durable_group_writes_no_records():
    # A wait=true /compile: its submission, its lost lease and its
    # quarantine leave nothing for the journal; once a durable group
    # shares the entry, its submission carries the requeue count so far.
    key = sorted(reports())[0]
    ledger = Ledger(clock=lambda: 0.0)
    job = Group(key, COMPILE_REQUEUES, local=True, durable=False)
    assert ledger.submit(job, [(key, PAYLOADS[0])]) == []
    entry = ledger.live[key]
    assert not entry.durable
    assert ledger.lose(ledger.claim("pool", 1, ledger.local), "worker crash") is None
    sweep = Group("sweep:s", 2)
    submitted, _ = ledger.submit(sweep, [(key, PAYLOADS[0])])
    assert entry.durable
    assert submitted == ("submitted", "sweep:s", {"payload": None, "keys": [key],
                                                  "requeues": {key: 1}})
    assert ledger.lose(ledger.claim("pool", 1, ledger.local), "worker crash") == (
        "requeued", "c2", {"requeues": {key: 2}, "failed": None})


def _prefilled_sweep(path):
    """Journal a sweep of three keys, the first served from the cache,
    and let a worker finish the second; return what the test needs."""
    keys = sorted(reports())
    items = [(key, reports()[key][0]) for key in keys]
    cache = {keys[0]: reports()[keys[0]][1]}
    journal = JobJournal(path, fsync=False)
    ledger = Ledger(clock=lambda: 0.0)
    sweep = Group("sweep:s", SWEEP_REQUEUES)
    records = ledger.submit(sweep, items, dict(cache))
    assert [record[0] for record in records] == ["submitted", "finished"]
    assert records[1][2] == {"done": [keys[0]], "failed": None}
    lg.write(journal, records)
    lease = ledger.claim("w", 1, sweep.queue, LEASE, sweep.key)
    assert list(lease.keys) == [keys[1]]
    ledger.release(lease)
    entry = ledger.live[keys[1]]
    cache[keys[1]] = reports()[keys[1]][1]
    assert ledger.finish(entry, "done", "w", cache[keys[1]])
    lg.write(journal, [lg.finished_record(lease.id, lg.outcomes([entry]))])
    return keys, items, cache, journal, ledger, sweep


def _finish_last(journal, ledger, group, key):
    lease = ledger.claim("w", 1, group.queue, LEASE, group.key)
    assert list(lease.keys) == [key]
    ledger.release(lease)
    last = ledger.live[key]
    assert ledger.finish(last, "done", "w", reports()[key][1])
    lg.write(journal, [lg.finished_record(lease.id, lg.outcomes([last]))])
    journal.close()


def test_a_sweep_served_partly_from_the_cache_turns_terminal_in_the_journal(tmp_path):
    # The submission's `finished` record is the only one that closes the
    # cache-served key: no worker ever finishes it.
    path = tmp_path / "journal.jsonl"
    keys, _, _, journal, ledger, sweep = _prefilled_sweep(path)
    _finish_last(journal, ledger, sweep, keys[2])
    state, _ = JobJournal(path, fsync=False).replay(repair=True)
    assert state.live() == [] and state.done == set(keys)


def test_a_cache_prefilled_sweep_replays_to_the_same_states(tmp_path):
    path = tmp_path / "journal.jsonl"
    keys, items, cache, journal, _, sweep = _prefilled_sweep(path)
    before = {e.key: e.state for e in sweep.entries}
    journal.close()  # the daemon crashes with the third key pending

    journal = JobJournal(path, fsync=False)
    state, _ = journal.replay(repair=True)
    (replayed,) = state.live()
    assert replayed.open_keys == {keys[2]}
    ledger = Ledger(clock=lambda: 0.0)
    group = Group(replayed.key, SWEEP_REQUEUES)
    lg.write(journal, ledger.resume(group, items, replayed, state.requeues, cache.get))
    assert {e.key: e.state for e in group.entries} == before == {
        keys[0]: "done", keys[1]: "done", keys[2]: "pending",
    }
    assert group.entries[0].served_from == "cache"
    _finish_last(journal, ledger, group, keys[2])
    state, _ = JobJournal(path, fsync=False).replay(repair=True)
    assert state.live() == [] and state.done == set(keys)
