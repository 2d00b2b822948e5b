"""Fault-tolerant sweep farm.

The farm turns ``run_sweep(jobs=N)`` from a fire-and-forget process pool
into a crash-surviving work-queue architecture:

* :mod:`repro.farm.journal` — every (scenario, kernel, size, mapper) work
  item is materialised into an on-disk, append-only journal under a
  content-hash ID, so a killed sweep can be resumed (``--resume``) without
  re-solving finished items.
* :mod:`repro.farm.leases` — items are handed to workers under leases with
  a wall deadline (the item's budget plus a grace); a worker still holding
  a lease past it is reaped and the item is requeued.  A retry policy with exponential backoff + jitter
  distinguishes transient failures (worker crash, flaky backend) from
  permanent ones (unmappable kernel), with a per-item retry cap and a
  poison-item quarantine so one bad kernel cannot stall the farm.
* :mod:`repro.farm.scheduler` — the scheduler process that owns the queue,
  the worker pool (:mod:`repro.procs` children), deadline expiry and
  crash respawn.
* :mod:`repro.farm.faults` — the fault-injection harness (env-var or
  config driven) behind the chaos test suite: the invariant is that a
  sweep under injected faults produces the same records as a fault-free
  sweep, just with nonzero retry counters.
"""

from repro.farm.faults import FaultPlan
from repro.farm.journal import SweepJournal, WorkItem, sweep_config_digest, work_item_id
from repro.farm.leases import FarmStats, LeasedWorkQueue
from repro.farm.retry import PERMANENT, TRANSIENT, RetryPolicy, classify_failure
from repro.farm.scheduler import FarmConfig, run_farm

__all__ = [
    "FaultPlan",
    "SweepJournal",
    "WorkItem",
    "sweep_config_digest",
    "work_item_id",
    "FarmStats",
    "LeasedWorkQueue",
    "PERMANENT",
    "TRANSIENT",
    "RetryPolicy",
    "classify_failure",
    "FarmConfig",
    "run_farm",
]
