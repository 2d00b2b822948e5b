"""The farm scheduler: worker pool, item deadlines, crash recovery.

One scheduler process (the caller) owns the :class:`LeasedWorkQueue`, the
journal, and N worker processes.  Workers are deliberately dumb: receive a
work item, run :func:`repro.experiments.runner.run_single`, send back a
verdict, repeat.  All policy — retries, backoff, quarantine, deadlines,
respawn — lives in the scheduler, so a worker can die (or be SIGKILLed by
the fault injector) at any instant without losing anything but the attempt
in flight.

Protocol
--------

* Each worker is a :mod:`repro.procs` child with its own pipe: the
  scheduler sends one ``{"item": ..., "attempt": n}`` message per lease,
  and the worker answers ``("done" | "failed", payload)`` per attempt.
* Every lease carries a wall deadline: the item's own budget
  (``ExperimentConfig.timeout``, times ``pathseeker_repeats`` for
  PathSeeker items) plus :data:`_DEADLINE_GRACE`.  A worker still holding
  a lease past it — wedged (SIGSTOP), or busy in a loop that never
  returns — is reaped (:func:`repro.procs.reap`: SIGTERM, bounded grace,
  SIGKILL, which also reaches a stopped process); the lease expires, the
  item requeues, and a replacement worker is spawned.  A worker that
  *dies* (nonzero exit, signal) reads as EOF on its pipe and is handled
  the same way, without waiting for the deadline.
* Respawned workers get fresh monotonic IDs — a lease can never be
  confused between a dead worker and its replacement, and one-shot
  injected faults (targeted at worker 0) fire exactly once.

Workers are forked, not spawned: the scheduler imports the whole mapper
stack and loads the native core first (:func:`repro.procs.fork_context`),
so every worker inherits both and per-respawn latency stays in
milliseconds.  They are not daemons, so a SAT-MapIt item may race
portfolio lanes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro import procs
from repro.exceptions import FarmError
from repro.farm.faults import FaultPlan
from repro.farm.journal import (
    SweepJournal,
    WorkItem,
    sweep_config_digest,
    work_item_id,
)
from repro.farm.leases import FarmStats, LeasedWorkQueue
from repro.farm.retry import TRANSIENT, RetryPolicy, classify_failure

__all__ = ["FarmConfig", "FarmOutcome", "materialise_items", "run_farm"]


#: Seconds on top of an item's own budget before its worker is presumed
#: wedged or runaway and reaped.  Covers what the budget does not: fabric
#: construction, regalloc, simulator replay and the record's way back.
_DEADLINE_GRACE = 10.0

#: SIGTERM grace before a reap escalates to SIGKILL.
_REAP_GRACE = 2.0

#: Longest the scheduler waits for a worker event before it re-checks
#: deadlines and backed-off items.
_TICK = 0.1


@dataclass(frozen=True)
class FarmConfig:
    """Execution knobs of one farm run (not part of the sweep protocol)."""

    jobs: int = 2
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Journal directory (required — the journal is the resume contract).
    journal_dir: str = ""
    #: Resume an existing journal instead of starting a fresh one.
    resume: bool = False
    faults: FaultPlan | None = None


@dataclass
class FarmOutcome:
    """Everything the farm hands back to the sweep runner."""

    items: list[WorkItem]
    #: item id -> RunRecord as plain data, annotated with retries/resumed.
    records: dict[str, dict]
    #: item id -> final error message of poisoned items.
    quarantined: dict[str, str]
    #: item id -> retry attempts consumed (for items that needed any).
    attempts: dict[str, int]
    stats: FarmStats


def materialise_items(config) -> list[WorkItem]:
    """Expand a sweep configuration into its deterministic work-item list.

    Same nesting order as the serial sweep (scenario, kernel, size,
    mapper), so farm output sorted by item index is record-for-record the
    serial output.
    """
    from repro.experiments.runner import HOMOGENEOUS

    digest = sweep_config_digest(config)
    items: list[WorkItem] = []
    for scenario in (config.scenarios or (HOMOGENEOUS,)):
        for kernel in config.kernels:
            for size in config.sizes:
                for mapper in config.mappers:
                    items.append(
                        WorkItem(
                            index=len(items),
                            id=work_item_id(kernel, size, mapper, scenario, digest),
                            kernel=kernel,
                            size=size,
                            mapper=mapper,
                            scenario=scenario,
                        )
                    )
    return items


def item_budget(config, item: WorkItem) -> float:
    """Wall seconds a lease on ``item`` lasts before its worker is reaped."""
    from repro.experiments.runner import PATHSEEKER

    repeats = config.pathseeker_repeats if item.mapper == PATHSEEKER else 1
    return config.timeout * max(1, repeats) + _DEADLINE_GRACE


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _farm_worker(
    conn, worker_id: int, config, faults: FaultPlan | None
) -> None:
    """Worker main: lease in, verdict out, until the scheduler reaps it."""
    from repro.experiments.runner import run_single

    received = 0
    while True:
        task = conn.recv()
        received += 1
        if faults is not None:
            # May SIGKILL or SIGSTOP this very process — before any solving
            # or sending, so the lease is provably still open when we die.
            faults.on_item_received(worker_id, received)
        item = WorkItem.from_payload(task["item"])
        attempt = int(task["attempt"])
        try:
            if faults is not None:
                faults.check_backend(item.id, attempt)
            record = run_single(
                item.kernel, item.size, item.mapper, config, item.scenario
            )
            conn.send(
                ("done", {"id": item.id, "record": dataclasses.asdict(record)})
            )
        except BaseException as exc:
            conn.send(
                (
                    "failed",
                    {
                        "id": item.id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "kind": classify_failure(exc),
                    },
                )
            )


# ---------------------------------------------------------------------------
# Scheduler side
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    id: int
    handle: procs.Worker
    busy: bool = False


class _Pool:
    """The worker processes, with monotonic IDs across respawns."""

    def __init__(self, ctx, config, faults: FaultPlan | None) -> None:
        self._ctx = ctx
        self._config = config
        self._faults = faults
        self._next_id = 0
        self.workers: dict[int, _Worker] = {}

    def spawn(self) -> _Worker:
        worker_id = self._next_id
        self._next_id += 1
        handle = procs.start(
            self._ctx, _farm_worker, worker_id, self._config, self._faults,
            daemon=False,
        )
        worker = _Worker(id=worker_id, handle=handle)
        self.workers[worker_id] = worker
        return worker

    def idle(self) -> list[_Worker]:
        return [w for w in self.workers.values() if not w.busy]

    def stop(self, workers) -> None:
        """Reap ``workers`` (one shared grace) and forget them."""
        workers = list(workers)
        procs.reap((w.handle.process for w in workers), grace=_REAP_GRACE)
        for worker in workers:
            worker.handle.conn.close()
            self.workers.pop(worker.id, None)


def run_farm(config, farm: FarmConfig, report=None) -> FarmOutcome:
    """Run one sweep through the fault-tolerant farm.

    ``report`` (optional) is called with each freshly completed record
    dict, in completion order — the runner uses it for ``--progress``.
    Raises :class:`repro.sat.backend.BackendUnavailableError` before
    writing the journal or starting a worker when the native core cannot
    be loaded.
    """
    if not farm.journal_dir:
        raise FarmError("the farm needs a journal directory")
    if farm.jobs < 1:
        raise FarmError(f"farm needs at least one worker, got jobs={farm.jobs}")

    start = time.perf_counter()
    # Before the journal and any worker: a native core that cannot load
    # fails the sweep here, once, instead of every item in every worker.
    context = procs.fork_context()
    digest = sweep_config_digest(config)
    items = materialise_items(config)
    journal = SweepJournal(farm.journal_dir)

    resumed_ids: set[str] = set()
    if farm.resume:
        state = journal.replay()
        if state.config_digest != digest:
            raise FarmError(
                f"journal at {journal.path} was written by a different "
                f"sweep configuration (or solver version); it cannot be "
                f"resumed with these settings"
            )
        journal.reopen()
        journal.append(
            "resumed",
            done=len(state.done),
            quarantined=len(state.quarantined),
            in_flight_expired=len(state.in_flight),
        )
    else:
        state = None
        journal.create(digest, items)

    queue = LeasedWorkQueue(
        items,
        policy=farm.policy,
        budget=lambda item: item_budget(config, item),
        journal=journal,
    )
    if state is not None:
        queue.stats.resumed = True
        for item_id, record in state.done.items():
            if item_id in queue.items:
                queue.preload_done(item_id, record)
                resumed_ids.add(item_id)
        for item_id, error in state.quarantined.items():
            if item_id in queue.items and item_id not in resumed_ids:
                queue.preload_quarantined(item_id, error)
        for item_id, attempts in state.attempts.items():
            if item_id in queue.items and item_id not in queue.results:
                queue.preload_attempts(item_id, attempts)

    pool = _Pool(context, config, farm.faults)
    faults = farm.faults
    corruptions_left = (
        1 if faults is not None and faults.corrupt_cache_after is not None else 0
    )

    try:
        for _ in range(farm.jobs):
            if queue.outstanding > len(pool.workers):
                pool.spawn()

        while not queue.finished:
            _dispatch(pool, queue)
            by_handle = {w.handle: w for w in pool.workers.values()}
            for handle in procs.wait(by_handle, _TICK):
                worker = by_handle[handle]
                reply = procs.receive(handle)
                if isinstance(reply, procs.Crash):
                    _lost(pool, queue, worker, reply)
                    continue
                kind, payload = reply
                worker.busy = False
                if kind == "failed":
                    queue.fail(payload["id"], payload["error"], payload["kind"])
                elif queue.complete(payload["id"], payload["record"]):
                    if report is not None:
                        report(payload["record"])
                    if (
                        corruptions_left
                        and queue.stats.completed > faults.corrupt_cache_after
                        and getattr(config, "cache_dir", None)
                    ):
                        from repro.farm.faults import corrupt_newest_entry

                        corrupt_newest_entry(config.cache_dir)
                        corruptions_left = 0
            _expire_deadlines(pool, queue)
    finally:
        pool.stop(pool.workers.values())
        queue.stats.wall_s = time.perf_counter() - start
        journal.close()

    records: dict[str, dict] = {}
    for item_id, record in queue.results.items():
        annotated = dict(record)
        annotated["retries"] = queue.attempts_of(item_id)
        annotated["resumed"] = item_id in resumed_ids
        records[item_id] = annotated
    return FarmOutcome(
        items=items,
        records=records,
        quarantined=dict(queue.quarantined),
        attempts={
            item_id: queue.attempts_of(item_id)
            for item_id in queue.items
            if queue.attempts_of(item_id)
        },
        stats=queue.stats,
    )


def _dispatch(pool: _Pool, queue: LeasedWorkQueue) -> None:
    for worker in pool.idle():
        leased = queue.acquire(worker.id)
        if leased is None:
            return
        item, attempt = leased
        worker.busy = True
        try:
            worker.handle.conn.send({"item": item.payload(), "attempt": attempt})
        except OSError:
            pass  # died idle: the next wait reads its crash, requeues the item


def _respawn(pool: _Pool, queue: LeasedWorkQueue) -> None:
    if queue.outstanding > len(pool.workers):
        pool.spawn()
        queue.stats.worker_respawns += 1


def _lost(pool: _Pool, queue: LeasedWorkQueue, worker: _Worker, crash) -> None:
    """A worker died without delivering: requeue its item and respawn."""
    pool.stop([worker])
    queue.stats.worker_crashes += 1
    item_id = queue.lease_of(worker.id)
    if item_id is not None:
        queue.fail(
            item_id, f"{crash} while holding the lease (worker {worker.id})",
            TRANSIENT,
        )
    _respawn(pool, queue)


def _expire_deadlines(pool: _Pool, queue: LeasedWorkQueue) -> None:
    """Reap the workers of leases past their deadline; requeue the items.

    A wedged (SIGSTOPped) or runaway worker is still *alive*, so only the
    deadline catches it.  The reap's SIGKILL escalation reaches a stopped
    process, which SIGTERM does not.
    """
    expired = queue.expired()
    pool.stop(pool.workers[lease.worker] for lease in expired)
    for lease in expired:
        queue.expire(lease)
        _respawn(pool, queue)
