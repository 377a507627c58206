"""Unit tests for the persistent job journal.

Covers the crash shapes replay must absorb: torn final lines (a crash
mid-append), checksum-failing records (bit rot / interleaved garbage),
and repeated compaction (idempotence, byte-for-byte).
"""

import json

import pytest

from repro import faults
from repro.errors import JournalError
from repro.service.journal import (
    EVENTS,
    JOURNAL_VERSION,
    JobJournal,
    JournalState,
    _checksum,
)

PAYLOAD = {"kernel": "daxpy", "clusters": 2, "wait": False}


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def make_journal(tmp_path, name="jobs.jsonl"):
    # fsync off in unit tests: the durability syscall is not what is
    # under test, and it dominates runtime on CI disks.
    return JobJournal(tmp_path / name, fsync=False)


# ----------------------------------------------------------------------
# Append / replay roundtrip
# ----------------------------------------------------------------------


def test_roundtrip_keeps_furthest_state_per_key(tmp_path):
    with make_journal(tmp_path) as journal:
        journal.append("submitted", "k1", payload=PAYLOAD)
        journal.append("submitted", "k2")
        journal.append("requeued", "c1", requeues={"k1": 1})
        journal.append("finished", "c2", done=["k2"])
        state, stats = journal.replay()
    assert stats.records == 4
    assert stats.corrupt_lines == 0 and stats.torn_tail is False
    assert stats.live == 1 and stats.terminal == 1
    k1, k2 = state.groups["k1"], state.groups["k2"]
    assert not k1.terminal and k1.payload == PAYLOAD
    assert k1.keys == ["k1"]  # a one-entry group is keyed by its entry
    assert state.requeues == {"k1": 1}
    assert k2.terminal and state.done == {"k2"}
    assert [group.key for group in state.live()] == ["k1"]


def test_rank_monotonic_absorb_never_regresses():
    state = JournalState()
    state.absorb({"event": "submitted", "key": "k"})
    state.absorb({"event": "finished", "key": "c1", "done": ["k"]})
    # A late lost-lease record must not un-finish the entry.
    state.absorb({"event": "requeued", "key": "c2", "requeues": {"k": 1}})
    assert state.groups["k"].terminal and "k" in state.done
    assert state.requeues["k"] == 1  # the requeue budget still accumulates
    # Submitting a finished key again is a fresh run with a fresh budget.
    state.absorb({"event": "submitted", "key": "k"})
    assert not state.groups["k"].terminal
    assert "k" not in state.done and "k" not in state.requeues


def test_unknown_event_is_rejected(tmp_path):
    with make_journal(tmp_path) as journal:
        with pytest.raises(JournalError):
            journal.append("started", "k1")


@pytest.mark.parametrize("version", [1, 2])
def test_parent_version_journal_is_refused(tmp_path, version):
    # A journal of an older schema is refused at replay, naming its
    # version, instead of being misread: version 1 had per-path job and
    # sweep record families, version 2 journaled wait=true compiles.
    record = {"v": version, "seq": 1, "event": "submitted", "key": "k1",
              "wait": False, "priority": "normal", "payload": PAYLOAD}
    record["sum"] = _checksum(record)
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    journal = JobJournal(path, fsync=False)
    with pytest.raises(JournalError, match=f"version {version}"):
        journal.replay()
    journal.close()


def test_a_submission_carries_the_requeues_gathered_before_it(tmp_path):
    # A compile that became durable after a lost lease journals its
    # requeue count with its submission; compaction keeps the count.
    with make_journal(tmp_path) as journal:
        journal.append("submitted", "k1", payload=PAYLOAD, requeues={"k1": 1})
        state, _ = journal.replay()
        assert state.requeues == {"k1": 1} and not state.groups["k1"].terminal
        journal.compact()
        state, _ = journal.replay()
    assert state.requeues == {"k1": 1} and state.groups["k1"].payload == PAYLOAD


# ----------------------------------------------------------------------
# Torn writes and corruption
# ----------------------------------------------------------------------


def test_torn_tail_is_detected_and_repaired(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submitted", "k1", payload=PAYLOAD)
    record = journal.append("submitted", "k2")
    journal.close()
    # Simulate a crash mid-append: half a line, no newline.
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    with open(journal.path, "ab") as handle:
        handle.write(line[: len(line) // 2])

    reopened = make_journal(tmp_path)
    state, stats = reopened.replay()
    assert stats.torn_tail is True
    assert set(state.groups) == {"k1", "k2"}  # the torn line is simply absent

    # repair=True truncates the torn bytes so appends continue cleanly.
    before = reopened.path.read_bytes()
    state, stats = reopened.replay(repair=True)
    after = reopened.path.read_bytes()
    assert len(after) < len(before)
    assert after.endswith(b"\n")
    reopened.append("finished", "c1", done=["k1"])
    state, stats = reopened.replay()
    assert stats.torn_tail is False
    assert state.groups["k1"].terminal
    reopened.close()


def test_checksum_rejects_corrupt_lines_but_keeps_the_rest(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submitted", "k1", payload=PAYLOAD)
    journal.append("submitted", "k2")
    journal.close()
    raw = journal.path.read_bytes().splitlines(keepends=True)
    # Flip payload bytes of the first record without touching its "sum".
    garbled = raw[0].replace(b"daxpy", b"dxapy")
    journal.path.write_bytes(garbled + raw[1] + b'{"not": "a record"}\n')

    reopened = make_journal(tmp_path)
    state, stats = reopened.replay()
    reopened.close()
    assert stats.corrupt_lines == 2  # garbled checksum + schemaless line
    assert stats.records == 1
    assert set(state.groups) == {"k2"}


def test_checksum_is_over_canonical_record():
    record = {"v": JOURNAL_VERSION, "seq": 3, "event": "closed", "key": "abc"}
    digest = _checksum(record)
    assert _checksum({**record, "sum": digest}) == digest  # sum excluded
    assert _checksum({**record, "seq": 4}) != digest


def test_torn_write_fault_point_truncates_the_line(tmp_path):
    faults.install(faults.FaultPlan.from_spec("journal-torn-write:times=2"))
    journal = make_journal(tmp_path)
    journal.append("submitted", "k1", payload=PAYLOAD)
    journal.append("submitted", "k2", payload=PAYLOAD)  # torn
    assert journal.torn_writes == 1
    raw = journal.path.read_bytes()
    assert not raw.endswith(b"\n")

    state, stats = journal.replay(repair=True)
    assert stats.torn_tail is True
    assert set(state.groups) == {"k1"}
    # The journal heals: the torn bytes are gone and appends land again.
    journal.append("submitted", "k3")
    state, stats = journal.replay()
    assert set(state.groups) == {"k1", "k3"} and stats.torn_tail is False
    journal.close()


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------


def test_compaction_drops_terminal_keeps_live_and_is_idempotent(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submitted", "live-a", payload=PAYLOAD)
    journal.append("submitted", "dead-b")
    journal.append("requeued", "c1", requeues={"live-a": 1})
    journal.append("finished", "c2", done=["dead-b"])
    kept, dropped = journal.compact()
    assert (kept, dropped) == (1, 1)

    state, stats = journal.replay()
    assert set(state.groups) == {"live-a"}
    assert stats.records == 2  # the group + its requeue count
    group = state.groups["live-a"]
    # Everything needed to replay the job survived compaction.
    assert group.payload == PAYLOAD
    assert state.requeues == {"live-a": 1}

    # Idempotent: compacting a compacted journal is a byte-level no-op.
    first = journal.path.read_bytes()
    assert journal.compact() == (1, 0)
    assert journal.path.read_bytes() == first

    # The journal stays appendable after the handle swap, with seq
    # numbering continuing past the compacted records.
    journal.append("finished", "c3", done=["live-a"])
    state, _ = journal.replay()
    assert state.groups["live-a"].terminal
    assert journal.compact() == (0, 1)
    assert journal.path.read_bytes() == b""
    assert journal.compactions == 3
    journal.close()


def test_compaction_repairs_a_torn_tail_first(tmp_path):
    journal = make_journal(tmp_path)
    record = journal.append("submitted", "k1", payload=PAYLOAD)
    journal.close()
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    with open(journal.path, "ab") as handle:
        handle.write(line[: len(line) - 3])

    reopened = make_journal(tmp_path)
    assert reopened.compact() == (1, 0)
    raw = reopened.path.read_bytes()
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    reopened.close()


# ----------------------------------------------------------------------
# Many-entry groups: shared entries, torn tails, compaction
# ----------------------------------------------------------------------

SWEEP_SPEC = {"jobs": [PAYLOAD, dict(PAYLOAD, clusters=4)], "lease": 5.0}


def test_sweep_records_interleave_with_job_records(tmp_path):
    with make_journal(tmp_path) as journal:
        journal.append("submitted", "job-a", payload=PAYLOAD)
        journal.append("submitted", "sweep:sw-1", payload=SWEEP_SPEC,
                       keys=["key0", "job-a", "key2"])
        journal.append("finished", "c1", done=["key0"])
        journal.append("finished", "c2", done=["job-a"], failed={"key2": "boom"})
        state, stats = journal.replay()
    assert stats.records == 4
    sweep = state.groups["sweep:sw-1"]
    assert sweep.is_sweep and sweep.terminal
    assert sweep.payload == SWEEP_SPEC
    # One completion finishes the entry for every group holding it.
    assert state.groups["job-a"].terminal
    assert state.done == {"key0", "job-a"} and state.failed == {"key2": "boom"}


def test_sweep_terminal_records_close_the_entry(tmp_path):
    with make_journal(tmp_path) as journal:
        journal.append("submitted", "sweep:sw-1", payload=SWEEP_SPEC,
                       keys=["key0", "key1"])
        journal.append("finished", "c1", done=["key0"])
        journal.append("closed", "sweep:sw-1", error="rejected")
        # A straggler completion after the close must not re-open it.
        journal.append("finished", "c2", done=["key1"])
        state, _ = journal.replay()
    sweep = state.groups["sweep:sw-1"]
    assert sweep.terminal and sweep.closed
    assert state.live() == []


def test_torn_tail_inside_a_sweep_record(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submitted", "sweep:sw-1", payload=SWEEP_SPEC,
                   keys=["key0", "key1"])
    journal.append("finished", "c1", done=["key0"])
    record = journal.append("finished", "c2", done=["key1"])
    journal.close()
    # Crash mid-append of the second completion: tear its line.
    raw = journal.path.read_bytes().splitlines(keepends=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    assert raw[-1] == line
    journal.path.write_bytes(b"".join(raw[:-1]) + line[: len(line) // 2])

    reopened = make_journal(tmp_path)
    state, stats = reopened.replay(repair=True)
    reopened.close()
    assert stats.torn_tail is True
    sweep = state.groups["sweep:sw-1"]
    # The torn completion is simply absent; the intact prefix survives.
    assert state.done == {"key0"} and sweep.open_keys == {"key1"}
    assert sweep.payload == SWEEP_SPEC and not sweep.terminal


def test_compaction_keeps_open_sweeps_and_merges_progress(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submitted", "job-a", payload=PAYLOAD)
    journal.append("submitted", "sweep:open", payload=SWEEP_SPEC,
                   keys=["key0", "key1", "key2"])
    journal.append("finished", "c1", done=["key0"])
    journal.append("finished", "c2", failed={"key1": "boom"})
    journal.append("requeued", "c3", requeues={"key2": 2})
    journal.append("submitted", "sweep:closed", payload=SWEEP_SPEC,
                   keys=["key9"])
    journal.append("finished", "c4", done=["key9"])
    journal.append("finished", "c5", done=["job-a"])
    kept, dropped = journal.compact()
    assert (kept, dropped) == (1, 2)  # open sweep kept; job + closed sweep gone

    state, stats = journal.replay()
    assert set(state.groups) == {"sweep:open"}
    # Three records survive: the synthesized submission, one merged
    # completion and one merged requeue count.
    assert stats.records == 3
    sweep = state.groups["sweep:open"]
    assert sweep.payload == SWEEP_SPEC and sweep.open_keys == {"key2"}
    assert state.done == {"key0"} and state.failed == {"key1": "boom"}
    assert state.requeues == {"key2": 2}

    # Byte-idempotent recompaction, sweeps included.
    first = journal.path.read_bytes()
    assert journal.compact() == (1, 0)
    assert journal.path.read_bytes() == first

    # Appends continue with seq numbering past the synthesized records.
    journal.append("finished", "c6", done=["key2"])
    state, _ = journal.replay()
    assert state.groups["sweep:open"].terminal
    assert journal.compact() == (0, 1)
    assert journal.path.read_bytes() == b""
    journal.close()


def test_a_failure_stays_with_its_group_when_the_key_runs_again(tmp_path):
    # key0 fails for sweep:one; sweep:two submits key0 afresh.  Replay,
    # before and after compaction, keeps the failure with sweep:one and
    # key0 open for sweep:two, so a restart neither re-runs sweep:one's
    # job nor fails sweep:two's.
    journal = make_journal(tmp_path)
    journal.append("submitted", "sweep:one", payload=SWEEP_SPEC, keys=["key0", "key1"])
    journal.append("finished", "c1", failed={"key0": "boom"})
    journal.append("submitted", "sweep:two", payload=SWEEP_SPEC, keys=["key0"])
    for _ in range(2):
        state, _ = journal.replay()
        one, two = state.groups["sweep:one"], state.groups["sweep:two"]
        assert one.failed == {"key0": "boom"} and one.open_keys == {"key1"}
        assert two.failed == {} and two.open_keys == {"key0"}
        assert [group.key for group in state.live()] == ["sweep:one", "sweep:two"]
        journal.compact()
    journal.close()


def test_event_rank_table_is_complete():
    # One record family for compiles and sweeps alike.
    assert EVENTS == ("submitted", "finished", "requeued", "closed")
