"""Retry taxonomy and backoff policy for the sweep farm.

A failed work item is either worth retrying or poison:

* **Transient** — the failure says nothing about the item itself: a worker
  process crashed (OOM kill, operator SIGKILL), a solver backend was
  briefly unavailable (:class:`~repro.sat.backend.BackendUnavailableError`),
  a cache entry was corrupted mid-read, a lease expired because a worker
  wedged.  Retried under exponential backoff with jitter, up to the
  policy's cap.
* **Permanent** — re-running cannot change the answer:
  :class:`~repro.exceptions.MappingError` (the kernel's opcode histogram
  cannot fit the fabric at any II).  Quarantined immediately; the farm
  moves on.

The backoff jitter is *deterministic* per (item, attempt) — seeded from
the item's content hash — so two runs of the same sweep schedule retries
identically and the chaos suite can assert byte-identical outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import MappingError

#: Failure kinds carried in journal/queue events.
TRANSIENT = "transient"
PERMANENT = "permanent"


def classify_failure(exc: BaseException) -> str:
    """Map an exception from a work item to a retry class.

    Only :class:`MappingError` is provably permanent — the mapper raises it
    when the kernel cannot fit the fabric regardless of budgets.  Everything
    else (backend launch failures, corrupted cache reads, bugs in a worker)
    is treated as transient and bounded by the retry cap: a persistent
    "transient" failure still quarantines after ``max_retries`` attempts,
    it just gets the benefit of the doubt first.
    """
    if isinstance(exc, MappingError):
        return PERMANENT
    return TRANSIENT


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a retry cap.

    ``max_retries`` counts *re-runs*: an item is attempted at most
    ``1 + max_retries`` times before quarantine.
    """

    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    #: Additional fraction of the delay added as jitter, decorrelating
    #: retry storms when many items fail at once.
    jitter: float = 0.25

    def backoff(self, attempt: int, key: str = "") -> float:
        """Delay in seconds before retry number ``attempt`` (0-based).

        Deterministic for a fixed (key, attempt): the jitter RNG is seeded
        from both, so a resumed or repeated sweep schedules identically.
        """
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, attempt),
        )
        if self.jitter > 0:
            fraction = random.Random(f"{key}:{attempt}").random()
            delay += delay * self.jitter * fraction
        return delay

    def exhausted(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (0-based) was the last."""
        return attempt >= self.max_retries
