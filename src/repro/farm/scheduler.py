"""The farm scheduler: worker pool, item deadlines, crash recovery.

One scheduler process (the caller) owns the :class:`LeasedWorkQueue`, the
journal, and N worker processes.  Workers are deliberately dumb: receive a
work item, run :func:`repro.experiments.runner.run_single`, send back its
record, repeat.  Each item runs once and ends in exactly one record:

* the mapper's own verdict (``mapped``, ``failed``, ``timeout``);
* ``infeasible`` when it raised :class:`~repro.exceptions.MappingError`,
  ``error`` (with ``"{Type}: {message}"``) for any other exception — both
  built in the worker;
* ``crashed`` (naming the signal or exit code) when the worker died, and
  ``deadline`` when it was reaped at the item's deadline — both built
  here.  A solve is deterministic, so re-running any other failure cannot
  change it; a resume (:func:`run_farm` with ``resume``) runs the
  ``crashed`` and ``deadline`` records again.

Protocol
--------

* Each worker is a :mod:`repro.procs` child with its own pipe: the
  scheduler sends one work item per lease, and the worker answers
  ``(item id, record)``.
* Every lease carries a wall deadline: the item's own budget
  (``ExperimentConfig.timeout``, times ``pathseeker_repeats`` for
  PathSeeker items) plus :data:`_DEADLINE_GRACE`.  A worker still holding
  a lease past it — wedged (SIGSTOP), or busy in a loop that never
  returns — is reaped (:func:`repro.procs.reap`: SIGTERM, bounded grace,
  SIGKILL, which also reaches a stopped process) and a replacement worker
  is spawned.  A worker that *dies* (nonzero exit, signal) reads as EOF on
  its pipe and is handled the same way, without waiting for the deadline.
* Respawned workers get fresh monotonic IDs, so a lease can never be
  confused between a dead worker and its replacement.

Workers are forked, not spawned: the scheduler imports the whole mapper
stack and loads the native core first (:func:`repro.procs.fork_context`),
so every worker inherits both and per-respawn latency stays in
milliseconds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro import procs
from repro.exceptions import FarmError, MappingError
from repro.experiments import runner
from repro.farm.journal import (
    SweepJournal,
    WorkItem,
    sweep_config_digest,
    work_item_id,
)
from repro.farm.leases import FarmStats, LeasedWorkQueue

__all__ = ["FarmConfig", "FarmOutcome", "materialise_items", "run_farm"]


#: Seconds on top of an item's own budget before its worker is presumed
#: wedged or runaway and reaped.  Covers what the budget does not: fabric
#: construction, regalloc, simulator replay and the record's way back.
_DEADLINE_GRACE = 10.0

#: SIGTERM grace before a reap escalates to SIGKILL.
_REAP_GRACE = 2.0

#: Longest the scheduler waits for a worker event before it re-checks
#: deadlines.
_TICK = 0.1


@dataclass(frozen=True)
class FarmConfig:
    """Execution knobs of one farm run (not part of the sweep protocol)."""

    jobs: int = 2
    #: Journal directory (required — the journal is the resume contract).
    journal_dir: str = ""
    #: Resume an existing journal instead of starting a fresh one.
    resume: bool = False


@dataclass
class FarmOutcome:
    """Everything the farm hands back to the sweep runner."""

    items: list[WorkItem]
    #: item id -> RunRecord as plain data, annotated with ``resumed``.
    records: dict[str, dict]
    stats: FarmStats


def materialise_items(config) -> list[WorkItem]:
    """Expand a sweep configuration into its deterministic work-item list.

    Same nesting order as the serial sweep (scenario, kernel, size,
    mapper), so farm output sorted by item index is record-for-record the
    serial output.
    """
    digest = sweep_config_digest(config)
    items: list[WorkItem] = []
    for scenario in (config.scenarios or (runner.HOMOGENEOUS,)):
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
    repeats = config.pathseeker_repeats if item.mapper == runner.PATHSEEKER else 1
    return config.timeout * max(1, repeats) + _DEADLINE_GRACE


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _farm_worker(conn, config) -> None:
    """Worker main: item in, record out, until the scheduler reaps it."""
    while True:
        item = WorkItem.from_payload(conn.recv())
        try:
            # Looked up per item, so a test's patched run_single applies.
            record = runner.run_single(
                item.kernel, item.size, item.mapper, config, item.scenario
            )
        except Exception as exc:
            status = (runner.INFEASIBLE if isinstance(exc, MappingError)
                      else runner.ERROR)
            record = runner.failure_record(
                item, status, f"{type(exc).__name__}: {exc}"
            )
        conn.send((item.id, dataclasses.asdict(record)))


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

    def __init__(self, ctx, config) -> None:
        self._ctx = ctx
        self._config = config
        self._next_id = 0
        self.workers: dict[int, _Worker] = {}

    def spawn(self) -> _Worker:
        worker_id = self._next_id
        self._next_id += 1
        handle = procs.start(self._ctx, _farm_worker, self._config)
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
    """Run one sweep through the farm.

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
    queue = LeasedWorkQueue(
        items, budget=lambda item: item_budget(config, item), journal=journal
    )

    if farm.resume:
        state = journal.replay()
        if state.config_digest != digest:
            raise FarmError(
                f"journal at {journal.path} was written by a different "
                f"sweep configuration (or solver version); it cannot be "
                f"resumed with these settings"
            )
        queue.stats.resumed = True
        for item_id, record in state.done.items():
            if item_id not in queue.items:
                continue
            if record.get("status") in (runner.CRASHED, runner.DEADLINE):
                # Only a dead or reaped worker can end differently on a
                # second run; it runs again in its sweep position.
                queue.stats.retries += 1
            else:
                queue.preload_done(item_id, {**record, "resumed": True})
        journal.reopen()
        journal.append(
            "resumed",
            done=queue.stats.skipped,
            rerun=queue.stats.retries,
            in_flight_expired=len(state.in_flight),
        )
    else:
        journal.create(digest, items)

    fresh: list[dict] = []

    def finish(item_id: str, record: dict) -> None:
        if queue.complete(item_id, record):
            fresh.append(record)

    pool = _Pool(context, config)
    try:
        for _ in range(farm.jobs):
            if queue.outstanding > len(pool.workers):
                pool.spawn()

        _dispatch(pool, queue)
        while not queue.finished:
            by_handle = {w.handle: w for w in pool.workers.values()}
            for handle in procs.wait(by_handle, _TICK):
                worker = by_handle[handle]
                reply = procs.receive(handle)
                if isinstance(reply, procs.Crash):
                    _lost(pool, queue, worker, reply, finish)
                    continue
                worker.busy = False
                finish(*reply)
            _expire_deadlines(pool, queue, finish)
            # Workers first, then one fsync before any ``done`` is reported.
            _dispatch(pool, queue)
            if fresh:
                journal.sync()
                if report is not None:
                    for record in fresh:
                        report(record)
                fresh.clear()
    finally:
        pool.stop(pool.workers.values())
        queue.stats.wall_s = time.perf_counter() - start
        journal.close()

    return FarmOutcome(items=items, records=queue.results, stats=queue.stats)


def _dispatch(pool: _Pool, queue: LeasedWorkQueue) -> None:
    for worker in pool.idle():
        item = queue.acquire(worker.id)
        if item is None:
            return
        worker.busy = True
        try:
            worker.handle.conn.send(item.payload())
        except OSError:
            pass  # died idle: the next wait reads its crash


def _respawn(pool: _Pool, queue: LeasedWorkQueue) -> None:
    if queue.outstanding > len(pool.workers):
        pool.spawn()
        queue.stats.worker_respawns += 1


def _lost(pool: _Pool, queue: LeasedWorkQueue, worker: _Worker, crash, finish) -> None:
    """A worker died without delivering: its item ends ``crashed``."""
    pool.stop([worker])
    queue.stats.worker_crashes += 1
    item_id = queue.lease_of(worker.id)
    if item_id is not None:
        record = runner.failure_record(
            queue.items[item_id], runner.CRASHED, f"{crash} (worker {worker.id})"
        )
        finish(item_id, dataclasses.asdict(record))
    _respawn(pool, queue)


def _expire_deadlines(pool: _Pool, queue: LeasedWorkQueue, finish) -> None:
    """Reap the workers of leases past their deadline; the items end
    ``deadline``.

    A wedged (SIGSTOPped) or runaway worker is still *alive*, so only the
    deadline catches it.  The reap's SIGKILL escalation reaches a stopped
    process, which SIGTERM does not.
    """
    expired = queue.expired()
    pool.stop(pool.workers[lease.worker] for lease in expired)
    for lease in expired:
        queue.stats.deadlines_expired += 1
        record = runner.failure_record(
            lease.item,
            runner.DEADLINE,
            f"deadline of {queue.budget(lease.item):.1f}s exceeded "
            f"(worker {lease.worker} reaped)",
        )
        finish(lease.item.id, dataclasses.asdict(record))
        _respawn(pool, queue)
