"""Persistent, content-addressed mapping cache.

``repro map`` / ``repro sweep`` re-solve identical mapping problems from
scratch on every invocation; at service scale the same (kernel, fabric,
configuration) triple arrives over and over.  This module memoises
successful mapping runs on disk:

* **Key** — the SHA-256 of a canonical JSON rendering of the DFG, the CGRA
  spec, the *semantic* mapper-configuration fields, the starting II and the
  solver-core version (:data:`repro.sat.solver.SOLVER_VERSION`).  Execution
  details that cannot change which mapping is found — timeouts, verbosity,
  the heuristic seed, the cache directory itself — are excluded, so a
  seeded run primes the cache for a later unseeded run of the same
  problem.  Bumping the solver version changes every key, which
  is how stale results from an older engine are invalidated wholesale.
* **Entry** — one ``<key>.json`` file under the cache directory holding the
  achieved II and the full mapping (placements plus register assignment),
  written atomically *and durably* (temp file, fsync, rename, directory
  fsync) so concurrent sweep workers can share a directory and a served
  entry survives power loss — a resumed sweep treats cache hits as settled
  work it will never redo.
* **Recovery** — unreadable or tampered entries are deleted on lookup and
  counted (``corrupted`` / ``invalidated``) rather than raised; a cache can
  never make a mapping run fail, only skip work.

Only *successful* runs are cached: a failure is relative to the run's
budgets (timeout, II cap), which the key deliberately ignores.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.mapping import Mapping
from repro.sat.solver import SOLVER_VERSION

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.cgra.architecture import CGRA
    from repro.core.mapper import MapperConfig, MappingOutcome
    from repro.dfg.graph import DFG

#: Entry-format tag; bumping it invalidates every existing entry.
SCHEMA = "satmapit-mapcache/1"

#: Shape of a legal cache namespace (tenant id): one path component, no
#: separators or traversal, bounded length.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def resolve_cache_dir(
    cache_dir: str | os.PathLike, namespace: str | None = None
) -> Path:
    """The directory a (possibly namespaced) cache handle lives in.

    A namespace (the service's tenant id) selects one subdirectory of the
    cache root; its alphabet is restricted so request-supplied tenant
    strings can never traverse outside the root (``..``, separators and
    dotfile prefixes all fail the pattern).
    """
    root = Path(cache_dir)
    if namespace is None:
        return root
    if not _NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"illegal cache namespace {namespace!r}: must match "
            f"{_NAMESPACE_RE.pattern}"
        )
    return root / namespace


#: Minimum age (seconds since mtime) before an atomic-write temp file is
#: considered crash-orphaned and swept.  Generous compared to the
#: milliseconds a live writer holds one open, so the sweep can never race
#: an in-progress ``store()`` in another process.
STALE_TEMP_AGE = 300.0

#: MapperConfig fields that determine *which* mapping a run can produce.
#: Everything else (timeout, attempt_time_limit, verbose, the cache and
#: heuristic-seeding knobs, proof) only affects how fast or whether the
#: run finishes within budget or what evidence it logs, never the II of a
#: completed run, and is deliberately excluded from the key — a seeded run
#: primes the cache for a later unseeded run of the same problem.
#: ``random_seed`` is excluded too: the native solver is deterministic and
#: ignores it, so runs that differ only in the seed build the same mapping.
SEMANTIC_CONFIG_FIELDS: tuple[str, ...] = (
    "max_ii",
    "schedule_slack",
    "max_extra_slack",
    "slack_conflict_limit",
    "regalloc_retries",
    "amo_encoding",
    "amo_probe_conflicts",
    "max_iteration_span",
    "enforce_output_register",
    "symmetry_breaking",
    "neighbour_register_file_access",
    "run_register_allocation",
    "solver_conflict_limit",
)

#: Fields ``MapperConfig`` no longer has, at the one value every run now
#: uses.  Hashing them keeps every cache key written before they were
#: removed.
RETIRED_CONFIG_FIELDS: dict[str, object] = {"backend": "cdcl"}


@dataclass
class CacheStats:
    """Counters for one cache handle (reported per mapping run / sweep)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries discarded because their schema / solver version / key did not
    #: match what their filename promised (manual copies, version skew).
    invalidated: int = 0
    #: Entries deleted because they could not be parsed or decoded into a
    #: legal mapping.
    corrupted: int = 0
    #: Entries pruned (oldest first) to keep the directory inside its size
    #: budget (``MappingCache(max_mb=...)``).
    evicted: int = 0
    #: Crash-orphaned atomic-write temp files (``*.tmp``) swept from the
    #: cache directory.  A writer that dies between ``NamedTemporaryFile``
    #: and ``os.replace`` leaves its temp file behind; without the sweep
    #: those orphans accumulate unboundedly and are invisible to the size
    #: budget.  Only temps older than :data:`STALE_TEMP_AGE` are touched,
    #: so a live concurrent writer is never raced.
    temp_files_swept: int = 0

    def summary(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s), {self.invalidated} invalidated, "
            f"{self.corrupted} corrupted, {self.evicted} evicted, "
            f"{self.temp_files_swept} stale temp(s) swept"
        )


@dataclass
class CacheHit:
    """A successfully recovered cache entry."""

    key: str
    ii: int
    minimum_ii: int
    mapping: Mapping
    entry: dict


def config_fingerprint(config: "MapperConfig") -> dict:
    """The semantic slice of a mapper configuration, as plain data."""
    fingerprint: dict = dict(RETIRED_CONFIG_FIELDS)
    for name in SEMANTIC_CONFIG_FIELDS:
        value = getattr(config, name, None)
        if isinstance(value, enum.Enum):
            value = value.value
        fingerprint[name] = value
    return fingerprint


def cache_key(
    dfg: "DFG",
    cgra: "CGRA",
    config: "MapperConfig",
    start_ii: int | None = None,
    solver_version: str = SOLVER_VERSION,
) -> str:
    """Canonical content hash of one mapping problem."""
    payload = {
        "schema": SCHEMA,
        "solver_version": solver_version,
        "dfg": dfg.to_dict(),
        "cgra": cgra.to_spec(),
        "config": config_fingerprint(config),
        "start_ii": start_ii,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class MappingCache:
    """Disk-backed mapping memo, one JSON file per cache key."""

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        solver_version: str = SOLVER_VERSION,
        max_mb: float | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.solver_version = solver_version
        #: Directory size budget in bytes; ``None`` leaves growth unbounded.
        self.max_bytes = None if max_mb is None else int(max_mb * 1024 * 1024)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key(
        self,
        dfg: "DFG",
        cgra: "CGRA",
        config: "MapperConfig",
        start_ii: int | None = None,
    ) -> str:
        return cache_key(
            dfg, cgra, config, start_ii=start_ii,
            solver_version=self.solver_version,
        )

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    # ------------------------------------------------------------------
    def lookup(
        self,
        dfg: "DFG",
        cgra: "CGRA",
        config: "MapperConfig",
        start_ii: int | None = None,
    ) -> CacheHit | None:
        """Recover a cached result, or ``None`` (recording a miss)."""
        return self.lookup_key(self.key(dfg, cgra, config, start_ii))

    def lookup_key(self, key: str) -> CacheHit | None:
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self._discard(path, corrupted=True)
            return None
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            self._discard(path, corrupted=True)
            return None
        if not isinstance(entry, dict) or (
            entry.get("schema") != SCHEMA
            or entry.get("solver_version") != self.solver_version
            or entry.get("key") != key
        ):
            self._discard(path, corrupted=False)
            return None
        try:
            mapping = Mapping.from_dict(entry["mapping"])
            ii = int(entry["ii"])
            minimum_ii = int(entry.get("minimum_ii", 1))
        except Exception:
            self._discard(path, corrupted=True)
            return None
        if mapping.ii != ii or mapping.violations():
            # A tampered or bit-rotted mapping must never be served.
            self._discard(path, corrupted=True)
            return None
        self.stats.hits += 1
        return CacheHit(
            key=key, ii=ii, minimum_ii=minimum_ii, mapping=mapping, entry=entry
        )

    def _discard(self, path: Path, corrupted: bool) -> None:
        """Drop a bad entry (recovery path) and record why."""
        if corrupted:
            self.stats.corrupted += 1
        else:
            self.stats.invalidated += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / unwritable dir
            pass

    # ------------------------------------------------------------------
    def store(
        self,
        key: str,
        outcome: "MappingOutcome",
    ) -> Path | None:
        """Persist a successful outcome under ``key`` (atomic write)."""
        if not outcome.success or outcome.mapping is None or outcome.ii is None:
            return None
        entry = {
            "schema": SCHEMA,
            "solver_version": self.solver_version,
            "key": key,
            "dfg_name": outcome.dfg_name,
            "cgra_name": outcome.cgra_name,
            "ii": outcome.ii,
            "minimum_ii": outcome.minimum_ii,
            "attempts": len(outcome.attempts),
            "total_time": round(outcome.total_time, 4),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "mapping": outcome.mapping.to_dict(),
        }
        # UNSAT attempts below the final II are the entry's *lower-bound
        # evidence*; with proof logging on each carries the SHA-256 digest
        # of its DRAT trace (see repro.sat.drat), so a served bound remains
        # independently checkable against a retained trace.  Keyed by
        # "II/slack": one II can end UNSAT at several slack levels.
        proof_digests = {
            f"{attempt.ii}/{attempt.schedule_slack}": attempt.proof_digest
            for attempt in outcome.attempts
            if attempt.status == "UNSAT" and attempt.proof_digest
        }
        if proof_digests:
            entry["unsat_proof_digests"] = proof_digests
        # Serialized in one call before the temp file exists: one pass of
        # the C encoder instead of json.dump's thousands of small writes,
        # and an unserializable field raises here without leaving a temp
        # file behind.
        text = json.dumps(entry, separators=(",", ":")) + "\n"
        path = self.path_for(key)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.cache_dir, suffix=".tmp", delete=False,
            encoding="utf-8",
        )
        try:
            with handle as stream:
                stream.write(text)
                # Durability, not just atomicity: flush+fsync the temp file
                # before the rename (or a crash can promote an empty/partial
                # file to a valid-looking entry name), then fsync the
                # directory so the rename itself survives power loss — the
                # farm's resume path treats served cache entries as settled
                # work it will never redo.
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(handle.name, path)
            self._fsync_directory()
        except OSError:  # pragma: no cover - disk-full style failures
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            return None
        self.stats.writes += 1
        self.sweep_stale_temps()
        self._enforce_budget(keep=path)
        return path

    def _fsync_directory(self) -> None:
        """Flush the directory entry of a just-renamed file to disk.

        ``os.replace`` is atomic against concurrent readers but not against
        power loss until the containing directory is fsynced.  Best-effort:
        filesystems that refuse directory fds (or fsync on them) keep the
        old, rename-only guarantee.
        """
        try:
            fd = os.open(self.cache_dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def sweep_stale_temps(self, now: float | None = None) -> int:
        """Delete crash-orphaned atomic-write temp files; return the count.

        A ``store()`` that dies between creating its ``*.tmp`` file and the
        ``os.replace`` leaves the temp behind forever — no later lookup or
        eviction ever scans for it.  Any ``*.tmp`` older than
        :data:`STALE_TEMP_AGE` is such an orphan (a live writer holds its
        temp for milliseconds); younger temps are left alone so a concurrent
        writer in another process is never raced.  Called on every
        ``store()`` and directly by long-lived holders (the service's
        telemetry loop); swept files are counted in
        ``CacheStats.temp_files_swept``.
        """
        now = time.time() if now is None else now
        swept = 0
        for entry, stat in self._scan((".tmp",)):
            if now - stat.st_mtime < STALE_TEMP_AGE:
                continue
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            self.stats.temp_files_swept += 1
            swept += 1
        return swept

    def _scan(self, suffixes: tuple[str, ...]):
        """``(entry, stat)`` of every name in the directory ending in one
        of ``suffixes``: one :func:`os.scandir` pass, skipping files that
        vanish before their ``stat``."""
        with os.scandir(self.cache_dir) as entries:
            for entry in entries:
                if not entry.name.endswith(suffixes):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                yield entry, stat

    def directory_stats(self, now: float | None = None) -> dict:
        """Snapshot of the on-disk cache state, for telemetry endpoints.

        Returns entry count and bytes, the age span of the finished
        entries (seconds since mtime), any temp files currently present,
        and the configured budget — everything ``GET /stats`` needs
        without holding extra state in the handle.
        """
        now = time.time() if now is None else now
        entries = 0
        entry_bytes = 0
        ages: list[float] = []
        temp_files = 0
        temp_bytes = 0
        for entry, stat in self._scan((".json", ".tmp")):
            if entry.name.endswith(".json"):
                entries += 1
                entry_bytes += stat.st_size
                ages.append(max(0.0, now - stat.st_mtime))
            else:
                temp_files += 1
                temp_bytes += stat.st_size
        return {
            "entries": entries,
            "entry_bytes": entry_bytes,
            "oldest_entry_age_s": round(max(ages), 3) if ages else None,
            "newest_entry_age_s": round(min(ages), 3) if ages else None,
            "temp_files": temp_files,
            "temp_bytes": temp_bytes,
            "max_bytes": self.max_bytes,
        }

    def _enforce_budget(self, keep: Path | None = None) -> None:
        """Prune oldest entries first until the directory fits the budget.

        The entry just written (``keep``) is exempt — a single oversized
        store must not evict itself, or a hot loop would write and delete
        the same key forever.  Temp files count against the budget too
        (they occupy the same disk; stale ones were just swept, live ones
        belong to a concurrent writer) but are never evicted here — only
        finished ``*.json`` entries are.  Races with concurrent sweep
        workers are benign: a vanished file is simply skipped.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for entry, stat in self._scan((".json", ".tmp")):
            if entry.name.endswith(".json"):
                entries.append((stat.st_mtime, entry.path, stat.st_size))
            total += stat.st_size
        for _mtime, path, size in sorted(entries):
            if total <= self.max_bytes:
                return
            if keep is not None and path == str(keep):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self.stats.evicted += 1
            total -= size
