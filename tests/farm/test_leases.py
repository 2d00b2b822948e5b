"""Lease/deadline protocol, driven with a fake clock — no processes
anywhere in this file."""

from __future__ import annotations

import pytest

import json

from repro.farm.journal import SweepJournal, WorkItem
from repro.farm.leases import FarmStats, LeasedWorkQueue


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
    kwargs.setdefault("budget", lambda item: 10.0)
    queue = LeasedWorkQueue(_items(count), clock=clock, **kwargs)
    return queue, clock


class TestLeaseProtocol:
    def test_items_leased_in_sweep_order(self):
        queue, _clock = _queue(3)
        item0 = queue.acquire(worker=0)
        assert item0.index == 0
        assert queue.acquire(worker=1).index == 1
        assert queue.acquire(worker=2).index == 2
        assert queue.acquire(worker=3) is None
        assert queue.lease_of(0) == item0.id

    def test_one_lease_per_worker(self):
        queue, _clock = _queue(3)
        queue.acquire(worker=0)
        with pytest.raises(ValueError, match="already holds"):
            queue.acquire(worker=0)

    def test_complete_frees_worker_and_finishes(self):
        queue, _clock = _queue(1)
        item = queue.acquire(worker=0)
        assert queue.complete(item.id, {"ii": 3})
        assert queue.finished
        assert queue.stats.completed == 1
        assert queue.lease_of(0) is None

    def test_duplicate_complete_is_ignored(self):
        # A reaped-but-alive straggler may deliver after the item was
        # re-run to completion: first result wins.
        queue, _clock = _queue(1)
        item = queue.acquire(worker=0)
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

    def test_deadline_counts_from_the_grant(self):
        queue, clock = _queue(2, budget=lambda item: 10.0)
        queue.acquire(worker=0)
        clock.advance(5.0)
        queue.acquire(worker=1)
        clock.advance(7.0)
        assert [lease.worker for lease in queue.expired()] == [0]
        assert queue.expired(now=15.1)[-1].worker == 1

    def test_freed_worker_leases_the_next_item(self):
        queue, _clock = _queue(2)
        first = queue.acquire(worker=0)
        queue.complete(first.id, {"ii": 3})
        assert queue.acquire(worker=0).index == 1
        assert queue.lease_of(0) == "item-001"

    def test_outstanding_counts_pending_and_leased_items(self):
        queue, _clock = _queue(3)
        assert queue.outstanding == 3
        item = queue.acquire(worker=0)
        assert queue.outstanding == 3
        queue.complete(item.id, {"ii": 3})
        assert queue.outstanding == 2
        assert not queue.finished

    def test_empty_sweep_is_finished_at_once(self):
        queue, _clock = _queue(0)
        assert queue.finished
        assert queue.acquire(worker=0) is None

    def test_expiry_past_deadline(self):
        queue, clock = _queue(1, budget=lambda item: 10.0)
        item = queue.acquire(worker=0)
        clock.advance(10.1)
        (lease,) = queue.expired()
        assert (lease.item.id, lease.worker) == (item.id, 0)
        # The scheduler ends an expired item with its deadline record.
        assert queue.complete(item.id, {"status": "deadline"})
        assert queue.expired() == []
        assert queue.lease_of(0) is None
        assert queue.finished


class TestResumePreload:
    def test_preloaded_done_items_are_never_leased(self):
        queue, _clock = _queue(3)
        queue.preload_done("item-001", {"ii": 5})
        seen = []
        while True:
            item = queue.acquire(worker=len(seen))
            if item is None:
                break
            seen.append(item.id)
        assert seen == ["item-000", "item-002"]
        assert queue.stats.skipped == 1
        assert queue.outstanding == 2

    def test_preloaded_record_is_served_without_a_journal_line(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        queue = LeasedWorkQueue(items, journal=journal, clock=FakeClock())
        queue.preload_done("item-000", {"ii": 5, "resumed": True})
        journal.close()
        assert queue.results == {"item-000": {"ii": 5, "resumed": True}}
        assert queue.stats.completed == 0
        assert SweepJournal(tmp_path).replay().done == {}

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
        queue = LeasedWorkQueue(items, journal=journal, clock=FakeClock())
        item = queue.acquire(worker=0)
        queue.complete(item.id, {"ii": 3})
        item2 = queue.acquire(worker=0)
        crashed = {"status": "crashed", "failure": "killed by SIGKILL"}
        queue.complete(item2.id, crashed)  # a failure record is a ``done``
        journal.close()

        state = SweepJournal(tmp_path).replay()
        assert state.done == {item.id: {"ii": 3}, item2.id: crashed}
        assert not state.in_flight

    def test_lease_lines_name_the_worker(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        queue = LeasedWorkQueue(items, journal=journal, clock=FakeClock())
        queue.acquire(worker=4)
        queue.acquire(worker=7)
        journal.close()
        events = [json.loads(line) for line in
                  journal.path.read_text(encoding="utf-8").splitlines()]
        leases = [(e["id"], e["worker"]) for e in events if e["type"] == "lease"]
        assert leases == [("item-000", 4), ("item-001", 7)]
        assert set(SweepJournal(tmp_path).replay().in_flight) == {
            "item-000", "item-001"
        }


class TestFarmStats:
    def test_fresh_queue_counts_its_items_and_no_reruns(self):
        queue, _clock = _queue(4)
        assert queue.stats == FarmStats(items=4)
        assert queue.stats.retries == 0
        assert not queue.stats.resumed

    def test_summary_names_each_counter(self):
        stats = FarmStats(items=9, completed=6, skipped=3, retries=2,
                          deadlines_expired=1, worker_crashes=1)
        # The CI resume round trip greps "3 resumed from journal".
        assert stats.summary() == (
            "6/9 item(s) completed, 3 resumed from journal, "
            "2 crashed/deadline item(s) re-run, 1 deadline(s) expired, "
            "1 worker crash(es)"
        )

    def test_to_dict_is_plain_json(self):
        stats = FarmStats(items=2, completed=2, resumed=True, wall_s=0.5)
        data = json.loads(json.dumps(stats.to_dict()))
        assert data["items"] == 2 and data["resumed"] is True
        assert FarmStats(**data) == stats
