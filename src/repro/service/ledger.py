"""The work ledger: one queue of content-hash-keyed entries under leases.

Everything the daemon runs goes through one :class:`Ledger`.  A
submission is a :class:`Group` of entries — a ``/compile`` is a one-entry
group, a sweep (:mod:`repro.service.sweep`) a many-entry group — and
each :class:`Entry` is keyed by the content hash of its compile, so a
second submission of a live key attaches to the existing entry instead
of running it twice.  An entry's life::

    pending --claim--> leased --complete--> done | failed
       ^                  |
       +---lease lost-----+--requeues > budget--> quarantined

* :meth:`Ledger.claim` grants up to *count* pending entries of one
  :class:`Queue` to one worker under a :class:`Lease`, lowest
  ``(priority rank, sequence)`` first: high-priority ``/compile``
  entries go before normal and low ones, FIFO within a rank;
* a lost lease (:meth:`Ledger.lose`) — it expired, its worker crashed,
  or its results came back partial or invalid — puts each unfinished
  entry back at the *front* of its rank, and quarantines an entry whose
  requeues exceed its budget: :data:`COMPILE_REQUEUES` for a
  ``/compile``, the spec's ``max_requeues`` for a sweep.

Each group files its pending entries in a claim queue: every
``/compile`` group shares :attr:`Ledger.local`, which the daemon's pool
claims from, and each sweep has its own, which ``repro worker``
processes claim from through the same code.  An entry two groups share
sits in both queues, so a claim touches only what it can take.

A *durable* group is one replay must rebuild — every sweep, and a
``/compile`` once a submission to it said ``"wait": false`` — and only
what durable groups hold is journaled.  The ledger is synchronous and
clock-injectable; methods that change durable state return the journal
records (:mod:`repro.service.journal`) for the caller to append.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Terminal entry states (an entry is ``pending`` or ``leased`` before).
TERMINAL = frozenset({"done", "failed", "quarantined"})

#: Requeues a ``/compile`` entry survives: its second lost lease (the
#: second worker it crashes) quarantines it as poison.
COMPILE_REQUEUES = 1

#: Claim rank of sweep entries (the ``normal`` priority lane).
SWEEP_RANK = 1

#: One journal record: ``(event, key, fields)``.
Record = Tuple[str, str, Dict[str, object]]


class Entry:
    """One unit of work: a compile payload under its content-hash key."""

    __slots__ = ("key", "payload", "state", "requeues", "budget", "order", "lease",
                 "worker", "report", "seconds", "served_from", "error", "status", "groups")

    def __init__(self, key: str, payload: object, budget: int, order: Tuple[int, int]):
        self.key = key
        self.payload = payload
        self.state = "pending"
        self.requeues = 0
        self.budget = budget
        self.order = order
        self.lease: Optional[str] = None
        self.worker: Optional[str] = None
        self.report = None  # an EncodedReport once done
        self.seconds = None
        self.served_from: Optional[str] = None
        self.error: Optional[str] = None
        self.status = 500  # the HTTP status a failed /compile answers with
        self.groups: List["Group"] = []

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def local(self) -> bool:
        """Whether a ``/compile`` waits on it (the pool may claim it)."""
        return any(group.local for group in self.groups)

    @property
    def durable(self) -> bool:
        """Whether a durable group holds it (its outcome is journaled)."""
        return any(group.durable for group in self.groups)

    def queues(self) -> List["Queue"]:
        """The distinct claim queues of the groups holding it."""
        return list({id(group.queue): group.queue for group in self.groups}.values())


class Queue:
    """The pending entries one kind of worker claims, lowest order first.

    A heap with lazy deletion: an entry that leaves the queue, or whose
    order changes, leaves a stale heap item behind that :meth:`take`
    skips.
    """

    __slots__ = ("members", "_heap")

    def __init__(self):
        self.members: Dict[str, Entry] = {}
        self._heap: List[Tuple[Tuple[int, int], str]] = []

    def __len__(self) -> int:
        return len(self.members)

    def push(self, entry: Entry) -> None:
        self.members[entry.key] = entry
        heapq.heappush(self._heap, (entry.order, entry.key))

    def take(self, count: int) -> List[Entry]:
        """Remove and return up to *count* members, first in order."""
        picks: List[Entry] = []
        while self._heap and len(picks) < count:
            order, key = heapq.heappop(self._heap)
            entry = self.members.get(key)
            if entry is not None and entry.order == order:
                del self.members[key]
                picks.append(entry)
        return picks


class Lease:
    """One grant of entries to one worker, alive until its deadline."""

    __slots__ = ("id", "worker", "keys", "lease_seconds", "deadline", "group")

    def __init__(self, lease_id: str, worker: str, keys: Tuple[str, ...],
                 lease_seconds: float, deadline: float, group: Optional[str]):
        self.id = lease_id
        self.worker = worker
        self.keys = keys
        self.lease_seconds = lease_seconds
        self.deadline = deadline
        self.group = group  # the sweep claimed through; None for the pool


class Group:
    """One submission: the entries it waits on and its journal identity."""

    def __init__(self, key: str, budget: int, rank: int = SWEEP_RANK, local: bool = False,
                 payload: object = None, durable: bool = True):
        self.key = key
        self.entries: List[Entry] = []
        self.budget = budget
        self.rank = rank
        self.local = local
        self.payload = payload
        self.durable = durable  # journaled, so replay rebuilds it
        self.recovered = False
        self.queue: Optional[Queue] = None  # set by Ledger.submit
        self.unfinished: set = set()  # keys of its non-terminal entries

    @property
    def finished(self) -> bool:
        return not self.unfinished

    def notify(self, entry: Entry, event: str) -> None:
        """An entry of this group changed state (a hook for views)."""

    def submitted_record(self) -> Record:
        """Its ``submitted`` record, with its entries' requeue counts so far."""
        fields: Dict[str, object] = {"payload": self.payload}
        keys = [entry.key for entry in self.entries]
        if keys != [self.key]:
            fields["keys"] = keys
        requeues = {entry.key: entry.requeues for entry in self.entries if entry.requeues}
        if requeues:
            fields["requeues"] = requeues
        return ("submitted", self.key, fields)


#: One outcome of a completion: ``(key, terminal state, error)``.
Outcome = Tuple[str, str, Optional[str]]


def outcomes(entries: Iterable[Entry]) -> List[Outcome]:
    """The outcomes of the terminal ones among *entries*."""
    return [(entry.key, entry.state, entry.error) for entry in entries if entry.terminal]


def finished_record(lease_id: str, results: Iterable[Outcome]) -> Optional[Record]:
    """The one record of a completion: every key it finished or failed."""
    results = list(results)
    done = [key for key, state, _ in results if state == "done"]
    failed = {key: str(error) for key, state, error in results
              if state in ("failed", "quarantined")}
    if not done and not failed:
        return None
    return ("finished", lease_id, {"done": done or None, "failed": failed or None})


class Ledger:
    """Entries, their claim order and their leases (see module doc)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.live: Dict[str, Entry] = {}  # non-terminal entries by key
        self.local = Queue()  # the claim queue of every /compile group
        self.leases: Dict[str, Lease] = {}
        self._seq = 0
        self._lease_no = 0

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def submit(self, group: Group, items: List[Tuple[str, object]],
               prefilled: Optional[Dict[str, object]] = None,
               requeues: Optional[Dict[str, int]] = None,
               failed: Optional[Dict[str, str]] = None) -> List[Record]:
        """Attach *group* to an entry per ``(key, payload)`` item.

        A key in *failed* (journal replay: it failed for this group)
        starts ``failed`` and one in *prefilled* (a result already
        durable in a cache) ``done``, each in an entry of this group's
        own; any other live key attaches to its entry, and the rest are
        new pending entries with their requeue counts from *requeues*
        (journal replay).  Returns the ``submitted`` record, plus a
        ``finished`` record for the prefilled entries, of a durable group.
        The ``finished`` record is what closes a prefilled key in the
        group's journal entry: without it a sweep served partly from the
        cache would never turn terminal in the journal.
        """
        group.queue = self.local if group.local else Queue()
        prefilled, failed = prefilled or {}, failed or {}
        fresh: Dict[str, Entry] = {}
        for key, payload in items:
            entry = fresh.get(key)
            if entry is None and key not in failed and key not in prefilled:
                entry = self.live.get(key)
            if entry is None:
                entry = fresh[key] = Entry(key, payload, group.budget, (group.rank, self._next()))
                if key in failed:
                    entry.state, entry.error, entry.status = "failed", failed[key], 422
                elif key in prefilled:
                    entry.state, entry.served_from = "done", "cache"
                    entry.report = prefilled[key]
                else:
                    entry.requeues = (requeues or {}).get(key, 0)
                    self.live[key] = entry
            elif not entry.terminal:
                entry.budget = max(entry.budget, group.budget)
                entry.order = min(entry.order, (group.rank, entry.order[1]))
            if group not in entry.groups:
                entry.groups.append(group)
            group.entries.append(entry)
            if not entry.terminal:
                group.unfinished.add(key)
            if entry.state == "pending":
                self._enqueue(entry)  # into the group's queue, at its order
        if not group.durable:
            return []
        return [group.submitted_record(), finished_record(
            group.key, [o for o in outcomes(fresh.values()) if o[0] not in failed]
        )]

    def resume(self, group: Group, items: List[Tuple[str, object]], replayed,
               requeues: Dict[str, int], durable: Callable[[str], object]) -> List[Record]:
        """Rebuild a group from its journal record *replayed*.

        Entries that failed for it stay failed, entries whose result
        *durable* (a cache lookup) holds start done, requeue counts carry
        over, and the rest is queued again.  Returns a ``finished``
        record for the entries the journal still had open.
        """
        prefilled = {key: durable(key) for key, _ in items}
        self.submit(group, items, {k: r for k, r in prefilled.items() if r is not None},
                    requeues, replayed.failed)
        group.recovered = True
        return [finished_record(group.key, [
            outcome for outcome in outcomes(dict.fromkeys(group.entries))
            if outcome[0] in replayed.open_keys
        ])]

    @staticmethod
    def _enqueue(entry: Entry) -> None:
        for queue in entry.queues():
            queue.push(entry)

    @staticmethod
    def _dequeue(entry: Entry) -> None:
        for queue in entry.queues():
            queue.members.pop(entry.key, None)

    def detach(self, group: Group) -> None:
        """Drop *group*'s hold on its entries (shed, or history trim).

        A pending entry leaves the group's queue unless another of its
        groups shares that queue, and leaves the ledger when no group
        holds it any more.
        """
        for entry in group.entries:
            if group not in entry.groups:
                continue  # detached already (a shed job, trimmed later)
            entry.groups.remove(group)
            if entry.state != "pending":
                continue
            if group.queue not in entry.queues():
                group.queue.members.pop(entry.key, None)
            if not entry.groups:
                del self.live[entry.key]

    def claim(self, worker: str, count: int, queue: Queue,
              lease_seconds: float = math.inf, group: Optional[str] = None) -> Optional[Lease]:
        """Lease up to *count* entries of *queue*, first in order."""
        picks = queue.take(count)
        if not picks:
            return None
        self._lease_no += 1
        lease = Lease(f"c{self._lease_no}", worker, tuple(e.key for e in picks),
                      lease_seconds, self.clock() + lease_seconds, group)
        self.leases[lease.id] = lease
        for entry in picks:
            self._dequeue(entry)
            entry.state, entry.lease, entry.worker = "leased", lease.id, worker
            for holder in entry.groups:
                holder.notify(entry, "started")
        return lease

    def held(self, lease_id: str, worker: str) -> Optional[Lease]:
        """The lease *lease_id* if *worker* still holds it."""
        lease = self.leases.get(lease_id)
        return lease if lease is not None and lease.worker == worker else None

    def heartbeat(self, lease_id: str, worker: str) -> Optional[Lease]:
        """Extend a held lease; ``None`` when it was lost."""
        lease = self.held(lease_id, worker)
        if lease is not None:
            lease.deadline = self.clock() + lease.lease_seconds
        return lease

    def release(self, lease: Lease) -> None:
        """Retire a completed lease."""
        self.leases.pop(lease.id, None)

    def expired(self) -> List[Lease]:
        """Leases whose deadline has passed (still registered)."""
        now = self.clock()
        return [lease for lease in self.leases.values() if lease.deadline <= now]

    def finish(self, entry: Entry, state: str, worker: Optional[str] = None,
               report=None, error: Optional[str] = None, **fields) -> bool:
        """Move *entry* to a terminal *state*; ``False`` if it already was.

        The first outcome wins: compilation is a deterministic function
        of the request, so a later completion carries identical bits.
        """
        if entry.terminal:
            return False
        if entry.state == "pending":
            self._dequeue(entry)
        if self.live.get(entry.key) is entry:
            del self.live[entry.key]
        entry.state, entry.lease, entry.report, entry.error = state, None, report, error
        entry.worker = worker or entry.worker
        for name, value in fields.items():
            setattr(entry, name, value)
        for holder in list(entry.groups):
            holder.unfinished.discard(entry.key)
            holder.notify(entry, state)
        return True

    def lose(self, lease: Lease, reason: str,
             keys: Optional[Iterable[str]] = None) -> Optional[Record]:
        """A lost lease: requeue, or quarantine, what it still held.

        *keys* narrows the loss to some of its entries (a partial or
        invalid completion).  Returns the durable entries' ``requeued`` record.
        """
        if keys is None:
            self.release(lease)
        wanted = lease.keys if keys is None else set(keys)
        requeues: Dict[str, int] = {}
        failed: Dict[str, str] = {}
        for key in lease.keys:
            entry = self.live.get(key)
            if entry is None or entry.lease != lease.id or key not in wanted:
                continue
            entry.requeues += 1
            entry.lease = None
            if entry.durable:
                requeues[key] = entry.requeues
            if entry.requeues > entry.budget:
                error = (f"quarantined: {entry.requeues} leases lost without a "
                         f"completion ({reason}; last worker {entry.worker!r})")
                if entry.durable:
                    failed[key] = error
                self.finish(entry, "quarantined", error=error)
                continue
            entry.state, entry.worker = "pending", None
            entry.order = (entry.order[0], -self._next())  # the front of its rank
            self._enqueue(entry)
            for holder in entry.groups:
                holder.notify(entry, "retrying")
        if not requeues:
            return None
        return ("requeued", lease.id, {"requeues": requeues, "failed": failed or None})


def write(journal, records: Iterable[Optional[Record]]) -> None:
    """Append *records* to *journal* synchronously (``None`` skipped)."""
    for record in records:
        if journal is not None and record is not None:
            event, key, fields = record
            journal.append(event, key, **fields)
