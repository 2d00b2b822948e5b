"""Lease/retry/quarantine protocol, driven with a fake clock — no
processes anywhere in this file."""

from __future__ import annotations

import pytest

from repro.exceptions import MappingError
from repro.farm.journal import SweepJournal, WorkItem
from repro.farm.leases import LeasedWorkQueue
from repro.farm.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    classify_failure,
)
from repro.sat.backend import BackendUnavailableError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _items(count: int) -> list[WorkItem]:
    return [
        WorkItem(index=i, id=f"item-{i:03d}", kernel=f"k{i}", size=3,
                 mapper="SAT-MapIt", scenario="homogeneous")
        for i in range(count)
    ]


def _queue(count: int = 3, **kwargs) -> tuple[LeasedWorkQueue, FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("policy", RetryPolicy(max_retries=2, backoff_base=1.0,
                                            jitter=0.0))
    kwargs.setdefault("budget", lambda item: 10.0)
    queue = LeasedWorkQueue(_items(count), clock=clock, **kwargs)
    return queue, clock


class TestClassify:
    def test_mapping_error_is_permanent(self):
        assert classify_failure(MappingError("no fit")) == PERMANENT

    def test_everything_else_is_transient(self):
        assert classify_failure(BackendUnavailableError("kissat")) == TRANSIENT
        assert classify_failure(RuntimeError("boom")) == TRANSIENT
        assert classify_failure(OSError(12, "ENOMEM")) == TRANSIENT


class TestBackoff:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_cap=5.0, jitter=0.0)
        assert [policy.backoff(n) for n in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_per_item_and_attempt(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.backoff(1, key="a") == policy.backoff(1, key="a")
        assert policy.backoff(1, key="a") != policy.backoff(1, key="b")
        assert policy.backoff(1, key="a") != policy.backoff(2, key="a")

    def test_exhausted(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(0)
        assert not policy.exhausted(1)
        assert policy.exhausted(2)


class TestLeaseProtocol:
    def test_items_leased_in_sweep_order(self):
        queue, _clock = _queue(3)
        item0, attempt = queue.acquire(worker=0)
        assert (item0.index, attempt) == (0, 0)
        item1, _ = queue.acquire(worker=1)
        assert item1.index == 1
        assert queue.lease_of(0) == item0.id

    def test_one_lease_per_worker(self):
        queue, _clock = _queue(3)
        queue.acquire(worker=0)
        with pytest.raises(ValueError, match="already holds"):
            queue.acquire(worker=0)

    def test_complete_frees_worker_and_finishes(self):
        queue, _clock = _queue(1)
        item, _ = queue.acquire(worker=0)
        assert queue.complete(item.id, {"ii": 3})
        assert queue.finished
        assert queue.stats.completed == 1
        assert queue.lease_of(0) is None

    def test_duplicate_complete_is_ignored(self):
        # A reaped-but-alive straggler may deliver after the item was
        # re-run to completion: first result wins.
        queue, _clock = _queue(1)
        item, _ = queue.acquire(worker=0)
        assert queue.complete(item.id, {"ii": 3})
        assert not queue.complete(item.id, {"ii": 4})
        assert queue.results[item.id] == {"ii": 3}
        assert queue.stats.completed == 1

    def test_deadline_is_the_items_own_budget(self):
        queue, clock = _queue(
            2, budget=lambda item: 10.0 if item.index == 0 else 20.0
        )
        queue.acquire(worker=0)
        queue.acquire(worker=1)
        clock.advance(15.0)
        assert [lease.worker for lease in queue.expired()] == [0]
        clock.advance(6.0)
        assert len(queue.expired()) == 2

    def test_no_budget_means_no_deadline(self):
        queue, clock = _queue(1, budget=None)
        queue.acquire(worker=0)
        clock.advance(1e9)
        assert queue.expired() == []

    def test_expiry_past_deadline(self):
        queue, clock = _queue(1, budget=lambda item: 10.0)
        item, _ = queue.acquire(worker=0)
        clock.advance(10.1)
        (lease,) = queue.expired()
        assert lease.item.id == item.id
        assert queue.expire(lease) == "requeued"
        assert queue.stats.deadlines_expired == 1
        assert queue.stats.retries == 1
        assert "deadline" in queue.failures[item.id]


class TestRetries:
    def test_transient_failure_requeues_with_backoff(self):
        queue, clock = _queue(1)
        item, _ = queue.acquire(worker=0)
        assert queue.fail(item.id, "crash", TRANSIENT) == "requeued"
        # Backing off: not ready immediately, ready after the delay.
        assert queue.acquire(worker=0) is None
        assert queue.next_ready_in() == pytest.approx(1.0)
        clock.advance(1.0)
        leased = queue.acquire(worker=0)
        assert leased is not None
        assert leased[1] == 1  # second attempt
        assert queue.attempts_of(item.id) == 1

    def test_permanent_failure_quarantines_immediately(self):
        queue, _clock = _queue(1)
        item, _ = queue.acquire(worker=0)
        assert queue.fail(item.id, "unmappable", PERMANENT) == "quarantined"
        assert queue.finished
        assert queue.quarantined == {item.id: "unmappable"}
        assert queue.stats.quarantined == 1
        assert queue.stats.retries == 0

    def test_retry_cap_quarantines_poison_item(self):
        queue, clock = _queue(1)  # max_retries=2
        outcomes = []
        for _ in range(3):
            clock.advance(60.0)
            item, _attempt = queue.acquire(worker=0)
            outcomes.append(queue.fail(item.id, "still broken", TRANSIENT))
        assert outcomes == ["requeued", "requeued", "quarantined"]
        assert queue.finished
        assert queue.stats.retries == 2
        assert queue.stats.transient_failures == 3

    def test_fail_after_completion_is_stale(self):
        queue, _clock = _queue(1)
        item, _ = queue.acquire(worker=0)
        queue.complete(item.id, {"ii": 3})
        assert queue.fail(item.id, "late", TRANSIENT) == "ignored"
        assert queue.stats.quarantined == 0


class TestResumePreload:
    def test_preloaded_done_items_are_never_leased(self):
        queue, _clock = _queue(3)
        queue.preload_done("item-001", {"ii": 5})
        seen = []
        while True:
            leased = queue.acquire(worker=len(seen))
            if leased is None:
                break
            seen.append(leased[0].id)
        assert seen == ["item-000", "item-002"]
        assert queue.stats.skipped == 1

    def test_preloaded_quarantine_and_attempts(self):
        queue, clock = _queue(3)
        queue.preload_quarantined("item-000", "poison")
        queue.preload_attempts("item-001", 2)
        item, attempt = queue.acquire(worker=0)
        assert item.id == "item-001"
        assert attempt == 2  # one strike left before the cap
        assert queue.fail(item.id, "again", TRANSIENT) == "quarantined"

    def test_duplicate_item_ids_rejected(self):
        items = _items(2)
        clone = WorkItem(index=1, id=items[0].id, kernel="x", size=2,
                         mapper="RAMP", scenario="homogeneous")
        with pytest.raises(ValueError, match="duplicate"):
            LeasedWorkQueue([items[0], clone])


class TestJournalMirroring:
    def test_transitions_are_appended(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        clock = FakeClock()
        queue = LeasedWorkQueue(
            items,
            policy=RetryPolicy(max_retries=0, jitter=0.0),
            journal=journal,
            clock=clock,
        )
        item, _ = queue.acquire(worker=0)
        queue.complete(item.id, {"ii": 3})
        item2, _ = queue.acquire(worker=0)
        queue.fail(item2.id, "boom", TRANSIENT)  # cap 0 -> quarantine
        journal.close()

        state = SweepJournal(tmp_path).replay()
        assert state.done == {item.id: {"ii": 3}}
        assert state.quarantined == {item2.id: "boom"}
        assert not state.in_flight
