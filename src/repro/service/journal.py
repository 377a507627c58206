"""Persistent work journal: acknowledged work survives a restart.

The work ledger (:mod:`repro.service.ledger`) appends one JSONL record
per durable transition, in one family shared by a ``/compile`` (a
one-entry group) and a sweep (a many-entry group):

``submitted``
    a group was admitted, fsync'd before the submission is acknowledged:
    ``key`` is the group key (a compile's content hash, ``sweep:<id>``),
    ``keys`` its entries' content hashes (omitted for a one-entry
    group), ``payload`` what replay rebuilds it from, ``wait``/``priority``;
``finished``
    one lease completed: the entry keys it finished (``done``) and
    failed (``failed``: key -> error), outcomes of the groups holding
    those keys at that point (a later submission of a key runs afresh);
``requeued``
    a lease was lost: each requeued key's requeue count (``requeues``,
    so the budget survives a restart) and the keys quarantined
    (``failed``);
``closed``
    a group ended unfinished (shed, orphaned, or rejected on replay).

Lines carry ``v`` (the schema version), ``seq`` and ``sum``, the first 16
hex chars of the SHA-256 over the canonical record without ``sum``.
Replay skips lines whose checksum fails and truncates a torn final line
on repair; a valid record of another version raises
:class:`~repro.errors.JournalError` naming it.  :meth:`JobJournal.compact`
atomically rewrites the file down to the live groups.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .. import faults
from ..errors import JournalError

#: Journal record schema version (1 had per-path job and sweep families).
JOURNAL_VERSION = 2

#: Every record type the ledger writes.
EVENTS = ("submitted", "finished", "requeued", "closed")


def _checksum(record: Dict[str, object]) -> str:
    """Line checksum: sha256 over the canonical record sans ``sum``."""
    body = {name: value for name, value in record.items() if name != "sum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _line(record: Dict[str, object]) -> bytes:
    record["sum"] = _checksum(record)
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class JournalEntry:
    """One replayed group: what its ``submitted`` record carried."""

    key: str
    keys: List[str]
    payload: Optional[Dict[str, object]] = None
    wait: bool = True
    priority: str = "normal"
    closed: bool = False
    #: Entry keys without an outcome yet.
    open_keys: Set[str] = field(default_factory=set)
    #: Entry keys that failed while this group held them -> error.  They
    #: stay failed for this group even when a later group runs them again.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Submission order (replay and compaction follow it).
    order: int = 0

    @property
    def is_sweep(self) -> bool:
        return self.key.startswith("sweep:")

    @property
    def terminal(self) -> bool:
        return self.closed or not self.open_keys


@dataclass
class JournalState:
    """What one replay reconstructs: groups and entry outcomes."""

    groups: Dict[str, JournalEntry] = field(default_factory=dict)
    done: Set[str] = field(default_factory=set)
    failed: Dict[str, str] = field(default_factory=dict)
    requeues: Dict[str, int] = field(default_factory=dict)
    #: entry key -> keys of the groups holding it.
    holders: Dict[str, Set[str]] = field(default_factory=dict)
    submissions: int = 0

    def live(self) -> List[JournalEntry]:
        """The groups replay must rebuild, in submission order."""
        return sorted((g for g in self.groups.values() if not g.terminal), key=lambda g: g.order)

    def absorb(self, record: Dict[str, object]) -> None:
        """Fold one valid record into the state."""
        event, key = record["event"], str(record["key"])
        if event == "submitted":
            keys = [str(k) for k in record.get("keys") or [key]]
            for entry_key in keys:  # a finished key submitted again runs afresh
                if entry_key in self.done or entry_key in self.failed:
                    self.done.discard(entry_key)
                    self.failed.pop(entry_key, None)
                    self.requeues.pop(entry_key, None)
            self.groups[key] = JournalEntry(
                key, keys, record.get("payload"), bool(record.get("wait", True)),
                str(record.get("priority", "normal")), open_keys=set(keys),
                order=self.submissions,
            )
            self.submissions += 1
            for entry_key in keys:
                self.holders.setdefault(entry_key, set()).add(key)
        elif event == "closed":
            if key in self.groups:
                self.groups[key].closed = True
        else:
            for entry_key, count in (record.get("requeues") or {}).items():
                self.requeues[entry_key] = max(self.requeues.get(entry_key, 0), int(count))
            outcomes = [(k, None) for k in record.get("done") or ()]
            outcomes += list((record.get("failed") or {}).items())
            for entry_key, error in outcomes:
                if error is None:
                    self.failed.pop(entry_key, None)
                    self.done.add(entry_key)
                else:
                    self.done.discard(entry_key)
                    self.failed[entry_key] = str(error)
                for group_key in self.holders.pop(entry_key, ()):
                    group = self.groups[group_key]
                    if entry_key in group.open_keys:
                        group.open_keys.discard(entry_key)
                        if error is not None:
                            group.failed[entry_key] = str(error)


@dataclass
class ReplayStats:
    """What one replay pass found (surfaced in ``/metrics``)."""

    records: int = 0
    corrupt_lines: int = 0
    torn_tail: bool = False
    live: int = 0
    terminal: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class JobJournal:
    """Append-only, fsync'd, checksummed JSONL journal of ledger records."""

    def __init__(self, path: os.PathLike, fsync: bool = True):
        self.path = Path(path).expanduser()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        except OSError as err:
            raise JournalError(f"cannot open journal {self.path}: {err}")
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0
        self.appends = 0
        self.torn_writes = 0
        self.compactions = 0

    def append(self, event: str, key: str, **fields) -> Dict[str, object]:
        """Durably append one record (flushed and fsync'd) and return it."""
        if event not in EVENTS:
            raise JournalError(f"unknown journal event {event!r}; known: {', '.join(EVENTS)}")
        with self._lock:
            self._seq += 1
            record: Dict[str, object] = {"v": JOURNAL_VERSION, "seq": self._seq,
                                         "event": event, "key": key}
            record.update((name, value) for name, value in fields.items() if value is not None)
            line = _line(record)
            torn = faults.torn_write_size(len(line))
            if torn is not None:  # a simulated crash mid-append
                self.torn_writes += 1
                line = line[:torn]
            try:
                self._handle.write(line)
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except OSError as err:
                raise JournalError(f"journal append failed: {err}")
            self.appends += 1
            return record

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close on a dead fd
                pass

    def replay(self, repair: bool = False) -> Tuple[JournalState, ReplayStats]:
        """Reconstruct the ledger's durable state from the journal file.

        With ``repair=True`` a torn tail is truncated away so appends
        continue cleanly.  Raises :class:`JournalError` on a record of
        another schema version.
        """
        with self._lock:
            self._handle.flush()
            try:
                raw = self.path.read_bytes()
            except OSError as err:
                raise JournalError(f"cannot read journal {self.path}: {err}")
            state, stats = JournalState(), ReplayStats()
            offset = 0
            for line in raw.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    stats.torn_tail = True
                    break
                offset += len(line)
                record = self._decode(line)
                if record is None:
                    stats.corrupt_lines += 1
                    continue
                stats.records += 1
                self._seq = max(self._seq, int(record.get("seq", 0)))
                state.absorb(record)
            if repair and offset < len(raw):
                try:
                    with open(self.path, "r+b") as handle:
                        handle.truncate(offset)
                except OSError as err:
                    raise JournalError(f"cannot repair journal {self.path}: {err}")
            stats.live = len(state.live())
            stats.terminal = len(state.groups) - stats.live
            return state, stats

    def _decode(self, line: bytes) -> Optional[Dict[str, object]]:
        """One line -> record, or ``None`` when it fails validation."""
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("sum") != _checksum(record):
            return None
        if record.get("v") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.path} holds a version {record.get('v')!r} record; this "
                f"daemon reads version {JOURNAL_VERSION} only (let the old daemon drain, "
                "or move the file aside)"
            )
        if record.get("event") not in EVENTS or "key" not in record:
            return None
        return record

    def compact(self) -> Tuple[int, int]:
        """Rewrite the journal down to its live groups, atomically.

        Each live group in submission order: its ``submitted``, then one
        ``finished`` with the outcomes it saw; last, one ``requeued`` with
        the requeue counts of the entries still open.  Renumbered from
        ``seq=1`` and idempotent byte for byte.  Returns ``(kept,
        dropped)`` group counts.
        """
        state, _ = self.replay(repair=True)
        live = state.live()
        records: List[Dict[str, object]] = []
        open_keys: Set[str] = set()
        for group in live:
            record = {"event": "submitted", "key": group.key, "payload": group.payload,
                      "wait": group.wait, "priority": group.priority}
            if group.keys != [group.key]:
                record["keys"] = group.keys
            records.append(record)
            done = sorted(set(group.keys) - group.open_keys - set(group.failed))
            if done or group.failed:
                records.append({"event": "finished", "key": "compacted", "done": done or None,
                                "failed": dict(sorted(group.failed.items())) or None})
            open_keys |= group.open_keys
        requeues = {key: state.requeues[key] for key in sorted(open_keys & set(state.requeues))}
        if requeues:
            records.append({"event": "requeued", "key": "compacted", "requeues": requeues})
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=str(self.path.parent), suffix=".journal.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    for seq, record in enumerate(records, start=1):
                        handle.write(_line({
                            "v": JOURNAL_VERSION, "seq": seq,
                            **{k: v for k, v in record.items() if v is not None},
                        }))
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            try:
                self._handle.close()
                self._handle = open(self.path, "ab")
            except OSError as err:
                raise JournalError(f"cannot reopen compacted journal {self.path}: {err}")
            self._seq = len(records)
            self.compactions += 1
        return len(live), len(state.groups) - len(live)

    def counters(self) -> Dict[str, object]:
        return {"path": str(self.path), "appends": self.appends,
                "compactions": self.compactions, "torn_writes": self.torn_writes}

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
