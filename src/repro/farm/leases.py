"""Leased work queue: the farm's in-scheduler state machine.

Pure bookkeeping — no processes, no threads, injectable clock — so the
lease/deadline protocol is unit-testable without ever spawning a worker.
The scheduler (:mod:`repro.farm.scheduler`) drives it from real events;
the tests drive it from a fake clock.

Item lifecycle::

    pending --acquire--> leased --complete(record)--> done

Pending items are a FIFO in sweep order.  Every item runs once: a worker
crash or an expired deadline ends it with a failure record, delivered
through :meth:`LeasedWorkQueue.complete` like any other.  Every transition
is mirrored into the journal (when one is attached), so the queue's
in-memory state is always reconstructible from disk.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.farm.journal import SweepJournal, WorkItem


@dataclass
class FarmStats:
    """Counters for one farm run, surfaced through the sweep report."""

    items: int = 0
    #: Items that ended with a record in this run (failure records too).
    completed: int = 0
    #: Items served straight from the journal on resume (never re-solved).
    skipped: int = 0
    #: ``crashed``/``deadline`` records a resume ran again.
    retries: int = 0
    #: Leases revoked because the item outran its deadline.
    deadlines_expired: int = 0
    #: Worker processes that died without delivering a record.
    worker_crashes: int = 0
    #: Replacement workers spawned after crashes/reaps.
    worker_respawns: int = 0
    #: Whether this run resumed an earlier journal.
    resumed: bool = False
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict view for JSON serialisation."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One-line human summary of the farm run."""
        tags = [
            f"{self.completed}/{self.items} item(s) completed",
            f"{self.skipped} resumed from journal",
            f"{self.retries} crashed/deadline item(s) re-run",
            f"{self.deadlines_expired} deadline(s) expired",
            f"{self.worker_crashes} worker crash(es)",
        ]
        return ", ".join(tags)


@dataclass
class Lease:
    """One item checked out to one worker."""

    item: WorkItem
    worker: int
    #: When the lease expires: grant time plus the item's budget.
    deadline: float


class LeasedWorkQueue:
    """Work items under leases with per-item deadlines (see module doc)."""

    def __init__(
        self,
        items: list[WorkItem],
        budget: Callable[[WorkItem], float] | None = None,
        journal: SweepJournal | None = None,
        clock=time.monotonic,
    ) -> None:
        #: Seconds a lease on an item lasts (no deadline when ``None``).
        self.budget = budget or (lambda item: math.inf)
        self.journal = journal
        self.clock = clock
        self.stats = FarmStats(items=len(items))
        self.items = {item.id: item for item in items}
        if len(self.items) != len(items):
            raise ValueError("duplicate work-item IDs")
        self._pending: deque[str] = deque(item.id for item in items)
        self._leases: dict[str, Lease] = {}
        self._by_worker: dict[int, str] = {}
        self.results: dict[str, dict] = {}

    def preload_done(self, item_id: str, record: dict) -> None:
        """Mark an item finished from a replayed journal (never re-run)."""
        self._pending.remove(item_id)
        self.results[item_id] = record
        self.stats.skipped += 1

    # -- lease protocol ------------------------------------------------
    def acquire(self, worker: int, now: float | None = None) -> WorkItem | None:
        """Lease the next pending item to ``worker`` (``None`` when none is
        left)."""
        if worker in self._by_worker:
            raise ValueError(f"worker {worker} already holds a lease")
        if not self._pending:
            return None
        now = self.clock() if now is None else now
        item = self.items[self._pending.popleft()]
        self._leases[item.id] = Lease(
            item=item, worker=worker, deadline=now + self.budget(item)
        )
        self._by_worker[worker] = item.id
        if self.journal:
            self.journal.append("lease", id=item.id, worker=worker)
        return item

    def lease_of(self, worker: int) -> str | None:
        """The item a worker currently holds, if any."""
        return self._by_worker.get(worker)

    def expired(self, now: float | None = None) -> list[Lease]:
        """Leases past their deadline (not yet completed)."""
        now = self.clock() if now is None else now
        return [
            lease for lease in self._leases.values() if lease.deadline < now
        ]

    def complete(self, item_id: str, record: dict) -> bool:
        """Accept an item's record; idempotent under duplicate delivery:
        the first record wins, later duplicates are dropped."""
        lease = self._leases.pop(item_id, None)
        if lease is not None:
            del self._by_worker[lease.worker]
        if item_id in self.results:
            return False
        self.results[item_id] = record
        self.stats.completed += 1
        if self.journal:
            self.journal.append("done", id=item_id, record=record)
        return True

    # -- progress ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether every item has its record."""
        return len(self.results) >= len(self.items)

    @property
    def outstanding(self) -> int:
        """Items without a record yet."""
        return len(self.items) - len(self.results)
