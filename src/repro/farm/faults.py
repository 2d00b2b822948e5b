"""Fault-injection harness for the sweep farm.

The chaos suite's invariant is that a sweep under injected faults produces
*exactly* the records a fault-free sweep produces — same IIs, same
mappings — just with nonzero retry/respawn counters.  For that invariant
to be assertable in CI, every fault here is **deterministic**:

* ``kill_worker_after=N`` — the target worker SIGKILLs itself upon
  *receiving* its (N+1)-th item, before solving it.  Killing on receipt
  (not after sending a result) exercises the requeue path: the item is
  under lease when the worker dies, so the scheduler must detect the
  crash, requeue the item, and respawn the worker.  Respawned workers get
  fresh monotonic IDs, so the fault fires exactly once.
* ``wedge_worker_after=N`` — same trigger, but the worker SIGSTOPs itself
  instead of dying.  Its process stays alive and silent, so the only way
  the farm can make progress is the item-deadline path (reap the wedged
  process, requeue the item).
* ``backend_fail_rate=p`` — a deterministic per-item coin (hashed from
  the plan seed and the item's content-hash ID, not ``random``) selects a
  fraction ``p`` of items whose *first* ``backend_fail_attempts`` attempts
  raise :class:`~repro.sat.backend.BackendUnavailableError`.  Later
  attempts succeed, so a sweep with ``max_retries >=
  backend_fail_attempts`` is guaranteed to converge — the fault tests the
  retry/backoff machinery, not the operator's patience.
* ``corrupt_cache_after=N`` — after the N-th completed item the scheduler
  truncates the newest mapping-cache entry mid-run, exercising the
  cache's corrupted-entry recovery (delete + recount + re-solve) under
  farm concurrency.

Plans come from ``--chaos`` on the CLI or the ``REPRO_CHAOS`` environment
variable, as a comma-separated ``knob=value`` spec, e.g.::

    REPRO_CHAOS="kill-after=2,backend-rate=0.5,backend-attempts=1"
"""

from __future__ import annotations

import hashlib
import os
import signal
from dataclasses import dataclass, fields
from pathlib import Path

from repro.sat.backend import BackendUnavailableError

__all__ = ["FaultPlan", "CHAOS_ENV", "corrupt_newest_entry"]

#: Environment variable holding a fault spec (same grammar as ``--chaos``).
CHAOS_ENV = "REPRO_CHAOS"

#: Spec keys -> FaultPlan field names.
_SPEC_KEYS = {
    "kill-after": "kill_worker_after",
    "wedge-after": "wedge_worker_after",
    "backend-rate": "backend_fail_rate",
    "backend-attempts": "backend_fail_attempts",
    "corrupt-cache-after": "corrupt_cache_after",
    "seed": "seed",
    "target-worker": "target_worker",
}


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic set of faults to inject into a farm run."""

    #: Worker ``target_worker`` SIGKILLs itself on receiving item N+1.
    kill_worker_after: int | None = None
    #: Worker ``target_worker`` SIGSTOPs itself on receiving item N+1.
    wedge_worker_after: int | None = None
    #: Fraction of items whose early solve attempts fail (see module doc).
    backend_fail_rate: float = 0.0
    #: How many attempts per selected item fail before one succeeds.
    backend_fail_attempts: int = 1
    #: Corrupt the newest cache entry after this many completed items.
    corrupt_cache_after: int | None = None
    #: Seed mixed into the per-item backend-failure coin.
    seed: int = 0
    #: Which *original* worker the kill/wedge faults target (respawned
    #: workers get fresh IDs, so each fault fires at most once).
    target_worker: int = 0

    # -- parsing -------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``knob=value,knob=value`` chaos spec."""
        values: dict[str, object] = {}
        types = {f.name: f.type for f in fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, raw = part.partition("=")
            field_name = _SPEC_KEYS.get(key.strip())
            if field_name is None:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ValueError(
                    f"unknown chaos knob {key.strip()!r}; known knobs: {known}"
                )
            try:
                if "float" in str(types[field_name]):
                    values[field_name] = float(raw)
                else:
                    values[field_name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"chaos knob {key.strip()!r} needs a number, got {raw!r}"
                ) from None
        return cls(**values)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> "FaultPlan | None":
        """The plan from :data:`CHAOS_ENV`, or ``None`` when unset/empty."""
        spec = (environ if environ is not None else os.environ).get(CHAOS_ENV, "")
        if not spec.strip():
            return None
        return cls.from_spec(spec)

    @property
    def active(self) -> bool:
        return (
            self.kill_worker_after is not None
            or self.wedge_worker_after is not None
            or self.backend_fail_rate > 0.0
            or self.corrupt_cache_after is not None
        )

    # -- worker-side triggers (called inside worker processes) ---------
    def on_item_received(self, worker: int, items_received: int) -> None:
        """Fire kill/wedge faults; ``items_received`` counts this item.

        SIGKILL/SIGSTOP are raised against *our own* process, exactly the
        way an OOM kill or a stuck NFS mount would hit a real worker — the
        scheduler must recover from the outside.
        """
        if worker != self.target_worker:
            return
        if (
            self.kill_worker_after is not None
            and items_received == self.kill_worker_after + 1
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        if (
            self.wedge_worker_after is not None
            and items_received == self.wedge_worker_after + 1
        ):
            os.kill(os.getpid(), signal.SIGSTOP)

    def should_fail_backend(self, item_id: str, attempt: int) -> bool:
        """Deterministic coin: does this attempt of this item fail?"""
        if self.backend_fail_rate <= 0.0 or attempt >= self.backend_fail_attempts:
            return False
        digest = hashlib.sha256(f"{self.seed}:{item_id}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < self.backend_fail_rate

    def check_backend(self, item_id: str, attempt: int) -> None:
        """Raise the injected backend failure when the coin says so."""
        if self.should_fail_backend(item_id, attempt):
            raise BackendUnavailableError(
                binary="chaos",
                hint=(
                    f"injected backend failure (attempt {attempt + 1} of "
                    f"{self.backend_fail_attempts} doomed)"
                ),
            )


def corrupt_newest_entry(cache_dir: str | os.PathLike[str]) -> Path | None:
    """Truncate the newest mapping-cache entry to garbage, mid-run.

    Returns the corrupted path, or ``None`` when the cache holds no
    entries yet.  The next reader must detect the damage, delete the
    entry, count it (``CacheStats.corrupted``) and re-solve — never serve
    it or crash.
    """
    entries = sorted(
        Path(cache_dir).glob("*.json"),
        key=lambda path: path.stat().st_mtime,
        reverse=True,
    )
    if not entries:
        return None
    victim = entries[0]
    victim.write_text('{"schema": "satmapit-mapcache/1", "truncated', encoding="utf-8")
    return victim
