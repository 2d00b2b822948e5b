"""Leased work queue: the farm's in-scheduler state machine.

Pure bookkeeping — no processes, no threads, injectable clock — so the
lease/deadline/retry/quarantine protocol is unit-testable without ever
spawning a worker.  The scheduler (:mod:`repro.farm.scheduler`) drives it
from real events; the tests drive it from a fake clock.

Item lifecycle::

    pending --acquire--> leased --complete--> done
       ^                   |
       |                   +--fail(transient)--> pending (after backoff)
       +--expire (item deadline passed)---------+
                           |
                           +--fail(permanent) / retry cap -----> quarantined

Every transition is mirrored into the journal (when one is attached), so
the queue's in-memory state is always reconstructible from disk.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.farm.journal import SweepJournal, WorkItem
from repro.farm.retry import PERMANENT, RetryPolicy


@dataclass
class FarmStats:
    """Counters for one farm run, surfaced through the sweep report."""

    items: int = 0
    completed: int = 0
    #: Items served straight from the journal on resume (never re-solved).
    skipped: int = 0
    #: Retry attempts scheduled (transient failures under the cap).
    retries: int = 0
    #: Transient failures observed (crashes, backend errors, expiries).
    transient_failures: int = 0
    #: Leases revoked because the item outran its deadline.
    deadlines_expired: int = 0
    #: Worker processes that died without delivering a verdict.
    worker_crashes: int = 0
    #: Replacement workers spawned after crashes/reaps.
    worker_respawns: int = 0
    #: Items on the poison list (permanent failure or retry cap).
    quarantined: int = 0
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
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
            f"{self.deadlines_expired} deadline(s) expired",
            f"{self.worker_crashes} worker crash(es)",
            f"{self.quarantined} quarantined",
        ]
        return ", ".join(tags)


@dataclass
class Lease:
    """One item checked out to one worker."""

    item: WorkItem
    worker: int
    attempt: int
    #: When the lease expires: grant time plus the item's budget.
    deadline: float


class LeasedWorkQueue:
    """Work items under leases, retries and quarantine (see module doc)."""

    def __init__(
        self,
        items: list[WorkItem],
        policy: RetryPolicy | None = None,
        budget: Callable[[WorkItem], float] | None = None,
        journal: SweepJournal | None = None,
        clock=time.monotonic,
    ) -> None:
        self.policy = policy or RetryPolicy()
        #: Seconds a lease on an item lasts (no deadline when ``None``).
        self.budget = budget or (lambda item: math.inf)
        self.journal = journal
        self.clock = clock
        self.stats = FarmStats(items=len(items))
        self.items = {item.id: item for item in items}
        if len(self.items) != len(items):
            raise ValueError("duplicate work-item IDs")
        #: (ready_at, index) heap of items available for lease.
        self._ready: list[tuple[float, int, str]] = []
        self._leases: dict[str, Lease] = {}
        self._by_worker: dict[int, str] = {}
        self._attempts: dict[str, int] = {}
        self.results: dict[str, dict] = {}
        self.quarantined: dict[str, str] = {}
        #: Last failure message per item (diagnostics for the report).
        self.failures: dict[str, str] = {}
        now = self.clock()
        for item in items:
            heapq.heappush(self._ready, (now, item.index, item.id))

    # -- resume preload ------------------------------------------------
    def preload_done(self, item_id: str, record: dict) -> None:
        """Mark an item finished from a replayed journal (never re-run)."""
        self._drop_pending(item_id)
        self.results[item_id] = record
        self.stats.skipped += 1

    def preload_quarantined(self, item_id: str, error: str) -> None:
        """Mark an item quarantined before the run starts (journal resume)."""
        self._drop_pending(item_id)
        self.quarantined[item_id] = error
        self.failures[item_id] = error
        self.stats.quarantined += 1

    def preload_attempts(self, item_id: str, attempts: int) -> None:
        """Seed an item's attempt count from a resumed journal."""
        self._attempts[item_id] = attempts
        self.stats.retries += attempts

    def _drop_pending(self, item_id: str) -> None:
        self._ready = [entry for entry in self._ready if entry[2] != item_id]
        heapq.heapify(self._ready)

    # -- lease protocol ------------------------------------------------
    def acquire(self, worker: int, now: float | None = None):
        """Lease the next ready item to ``worker``.

        Returns ``(item, attempt)`` or ``None`` when nothing is ready
        (items may still be backing off — see :meth:`next_ready_in`).
        """
        now = self.clock() if now is None else now
        if worker in self._by_worker:
            raise ValueError(f"worker {worker} already holds a lease")
        if not self._ready or self._ready[0][0] > now:
            return None
        _ready_at, _index, item_id = heapq.heappop(self._ready)
        item = self.items[item_id]
        attempt = self._attempts.get(item_id, 0)
        lease = Lease(item=item, worker=worker, attempt=attempt,
                      deadline=now + self.budget(item))
        self._leases[item_id] = lease
        self._by_worker[worker] = item_id
        if self.journal:
            self.journal.append("lease", id=item_id, worker=worker, attempt=attempt)
        return item, attempt

    def lease_of(self, worker: int) -> str | None:
        """The item a worker currently holds, if any."""
        return self._by_worker.get(worker)

    def expired(self, now: float | None = None) -> list[Lease]:
        """Leases past their deadline (not yet revoked)."""
        now = self.clock() if now is None else now
        return [
            lease for lease in self._leases.values() if lease.deadline < now
        ]

    # -- outcomes ------------------------------------------------------
    def complete(self, item_id: str, record: dict) -> bool:
        """Accept a finished record; idempotent under duplicate delivery:
        the first result wins, later duplicates are dropped."""
        self._release(item_id)
        if item_id in self.results or item_id in self.quarantined:
            return False
        self._drop_pending(item_id)
        self.results[item_id] = record
        self.stats.completed += 1
        if self.journal:
            self.journal.append("done", id=item_id, record=record)
        return True

    def fail(self, item_id: str, error: str, kind: str, now: float | None = None) -> str:
        """Handle a failed attempt: backoff-requeue or quarantine.

        Returns the item's new state: ``"requeued"`` or ``"quarantined"``
        (or ``"ignored"`` for duplicate/stale reports).
        """
        now = self.clock() if now is None else now
        self._release(item_id)
        if item_id in self.results or item_id in self.quarantined:
            return "ignored"
        self.failures[item_id] = error
        attempt = self._attempts.get(item_id, 0)
        if kind != PERMANENT:
            self.stats.transient_failures += 1
        if self.journal:
            self.journal.append(
                "failed", id=item_id, error=error, kind=kind, attempt=attempt
            )
        if kind == PERMANENT or self.policy.exhausted(attempt):
            self.quarantined[item_id] = error
            self.stats.quarantined += 1
            if self.journal:
                self.journal.append("quarantined", id=item_id, error=error)
            return "quarantined"
        delay = self.policy.backoff(attempt, key=item_id)
        self._attempts[item_id] = attempt + 1
        self.stats.retries += 1
        item = self.items[item_id]
        heapq.heappush(self._ready, (now + delay, item.index, item_id))
        if self.journal:
            self.journal.append(
                "requeued", id=item_id, attempt=attempt + 1,
                backoff_s=round(delay, 3),
            )
        return "requeued"

    def expire(self, lease: Lease, now: float | None = None) -> str:
        """Revoke one expired lease and requeue/quarantine its item."""
        self.stats.deadlines_expired += 1
        return self.fail(
            lease.item.id,
            f"deadline of {self.budget(lease.item):.1f}s exceeded "
            f"(worker {lease.worker} reaped)",
            kind="transient",
            now=now,
        )

    def _release(self, item_id: str) -> None:
        lease = self._leases.pop(item_id, None)
        if lease is not None and self._by_worker.get(lease.worker) == item_id:
            del self._by_worker[lease.worker]

    # -- progress ------------------------------------------------------
    def attempts_of(self, item_id: str) -> int:
        """Retry attempts consumed by one item so far."""
        return self._attempts.get(item_id, 0)

    @property
    def finished(self) -> bool:
        """Whether every item is either completed or quarantined."""
        return len(self.results) + len(self.quarantined) >= len(self.items)

    def next_ready_in(self, now: float | None = None) -> float | None:
        """Seconds until the earliest backing-off item is ready (None when
        the pending set is empty)."""
        now = self.clock() if now is None else now
        if not self._ready:
            return None
        return max(0.0, self._ready[0][0] - now)

    @property
    def outstanding(self) -> int:
        """Items neither finished nor quarantined."""
        return len(self.items) - len(self.results) - len(self.quarantined)
