"""Sweep farm: ``run_sweep(jobs=N)`` as a journalled work queue.

Each (scenario, kernel, size, mapper) work item runs once, on one of N
worker processes, and ends in exactly one record — the mapper's verdict,
or a failure record (``infeasible``, ``crashed``, ``deadline``, ``error``)
that says what went wrong:

* :mod:`repro.farm.journal` — every work item is materialised into an
  on-disk, append-only journal under a content-hash ID, so a killed sweep
  can be resumed (``--resume``) without re-solving finished items; a
  resume runs only unfinished items and ``crashed``/``deadline`` records
  again.
* :mod:`repro.farm.leases` — items are handed to workers in sweep order
  under leases with a wall deadline (the item's budget plus a grace).
* :mod:`repro.farm.scheduler` — the scheduler process that owns the queue,
  the worker pool (:mod:`repro.procs` children), deadline expiry and
  crash respawn.
"""

from repro.farm.journal import SweepJournal, WorkItem, sweep_config_digest, work_item_id
from repro.farm.leases import FarmStats, LeasedWorkQueue
from repro.farm.scheduler import FarmConfig, run_farm

__all__ = [
    "SweepJournal",
    "WorkItem",
    "sweep_config_digest",
    "work_item_id",
    "FarmStats",
    "LeasedWorkQueue",
    "FarmConfig",
    "run_farm",
]
