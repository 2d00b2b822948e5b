"""Append-only work journal for resumable sweeps.

One sweep = one ``journal.jsonl`` file in the journal directory.  The
scheduler appends a JSON line per state transition; nothing is ever
rewritten, so any prefix of the file is a consistent snapshot and a
SIGKILLed sweep can be resumed from whatever made it to disk.  Each
append is flushed and fsynced — the journal is the farm's source of
truth, and an entry that was reported durable must survive power loss
exactly like a mapping-cache entry does.

Line vocabulary (``type`` field):

* ``header`` — schema tag plus the :func:`sweep_config_digest` of the
  experiment configuration.  A resume against a journal written by a
  *different* configuration (or solver version) refuses to run: the item
  IDs would not line up and stale records could be served silently.
* ``item`` — one materialised work item, in deterministic sweep order,
  under its content-hash ID (:func:`work_item_id`, reusing the mapping
  cache's config-fingerprint keying).
* ``lease`` / ``done`` / ``failed`` / ``requeued`` / ``quarantined`` —
  lifecycle transitions appended by the queue.  ``done`` carries the full
  :class:`~repro.experiments.runner.RunRecord` as plain data.
* ``resumed`` — appended by every resume, recording how many finished
  items were skipped.

Replay rules: a torn final line (the scheduler died mid-append) is
tolerated and ignored; a malformed line anywhere *else* means the file
was edited or corrupted and raises :class:`~repro.exceptions.FarmError`.
A ``lease`` without a later ``done``/``requeued``/``quarantined`` was in
flight at the crash — replay expires it, so the item is pending again.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.exceptions import FarmError
from repro.sat.solver import SOLVER_VERSION

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.experiments.runner import ExperimentConfig

#: Journal-format tag; bumping it invalidates every existing journal.
SCHEMA = "satmapit-farm-journal/1"

JOURNAL_FILENAME = "journal.jsonl"

#: ExperimentConfig fields that are farm *execution* knobs, not part of
#: the sweep protocol: resuming with a different retry cap is legitimate
#: (e.g. loosening it after a flaky night), so they are excluded from the
#: compatibility digest.
_EXECUTION_FIELDS = frozenset({"max_retries"})


def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    return value


def config_fingerprint(config: "ExperimentConfig") -> dict:
    """The sweep configuration as plain data, minus execution knobs."""
    fingerprint = {}
    for f in dataclasses.fields(config):
        if f.name in _EXECUTION_FIELDS:
            continue
        fingerprint[f.name] = _plain(getattr(config, f.name))
    return fingerprint


def sweep_config_digest(config: "ExperimentConfig") -> str:
    """Content hash deciding journal/resume compatibility.

    Includes the solver version: a resumed sweep must not mix records
    from two solver generations any more than the mapping cache would.
    """
    payload = {
        "schema": SCHEMA,
        "solver_version": SOLVER_VERSION,
        "config": config_fingerprint(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def work_item_id(
    kernel: str, size: int, mapper: str, scenario: str, config_digest: str
) -> str:
    """Content-hash ID of one (scenario, kernel, size, mapper) work item."""
    payload = {
        "schema": SCHEMA,
        "config": config_digest,
        "scenario": scenario,
        "kernel": kernel,
        "size": size,
        "mapper": mapper,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkItem:
    """One materialised unit of sweep work."""

    index: int
    id: str
    kernel: str
    size: int
    mapper: str
    scenario: str

    def payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "WorkItem":
        return cls(
            index=int(data["index"]),
            id=str(data["id"]),
            kernel=str(data["kernel"]),
            size=int(data["size"]),
            mapper=str(data["mapper"]),
            scenario=str(data["scenario"]),
        )

    def label(self) -> str:
        return f"{self.kernel}@{self.size}x{self.size}/{self.mapper} [{self.scenario}]"


@dataclass
class JournalState:
    """Everything replay recovers from a journal file."""

    config_digest: str
    items: list[WorkItem] = field(default_factory=list)
    #: item id -> RunRecord as plain data (the latest ``done`` wins).
    done: dict[str, dict] = field(default_factory=dict)
    #: item id -> last failure message, for quarantined items.
    quarantined: dict[str, str] = field(default_factory=dict)
    #: item id -> retry attempts already consumed.
    attempts: dict[str, int] = field(default_factory=dict)
    #: item ids whose lease was in flight when the journal ended.
    in_flight: set[str] = field(default_factory=set)


class SweepJournal:
    """Appender/replayer for one sweep's journal file."""

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        self._handle: IO[str] | None = None

    # -- writing -------------------------------------------------------
    def create(self, config_digest: str, items: list[WorkItem]) -> None:
        """Start a fresh journal: header plus every materialised item."""
        if self.path.exists():
            raise FarmError(
                f"{self.path} already holds a sweep journal; resume it "
                f"(--resume {self.directory}) or pick a fresh directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self.append(
            "header",
            schema=SCHEMA,
            config_digest=config_digest,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )
        for item in items:
            self.append("item", **item.payload())

    def reopen(self) -> None:
        """Append to an existing journal (the resume path)."""
        if not self.path.exists():
            raise FarmError(f"no sweep journal at {self.path}")
        self._handle = self.path.open("a", encoding="utf-8")

    def append(self, type_: str, **fields: Any) -> None:
        """Durably append one event line (flush + fsync)."""
        assert self._handle is not None, "journal not opened"
        line = json.dumps({"type": type_, **fields}, sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- replay --------------------------------------------------------
    def replay(self) -> JournalState:
        """Fold the journal into current state (see module docstring)."""
        if not self.path.exists():
            raise FarmError(f"no sweep journal at {self.path}")
        raw_lines = self.path.read_text(encoding="utf-8").splitlines()
        events: list[dict] = []
        for number, raw in enumerate(raw_lines):
            if not raw.strip():
                continue
            try:
                events.append(json.loads(raw))
            except json.JSONDecodeError:
                if number == len(raw_lines) - 1:
                    # Torn final append: the scheduler died mid-write.
                    # Everything before it is consistent by construction.
                    continue
                raise FarmError(
                    f"{self.path}:{number + 1}: corrupt journal line"
                ) from None
        if not events or events[0].get("type") != "header":
            raise FarmError(f"{self.path}: missing journal header")
        header = events[0]
        if header.get("schema") != SCHEMA:
            raise FarmError(
                f"{self.path}: journal schema {header.get('schema')!r} "
                f"does not match {SCHEMA!r}"
            )
        state = JournalState(config_digest=str(header.get("config_digest")))
        for event in events[1:]:
            kind = event.get("type")
            item_id = event.get("id")
            if kind == "item":
                state.items.append(WorkItem.from_payload(event))
            elif kind == "lease":
                state.in_flight.add(item_id)
            elif kind == "done":
                state.done[item_id] = event.get("record", {})
                state.in_flight.discard(item_id)
            elif kind == "failed":
                state.in_flight.discard(item_id)
            elif kind == "requeued":
                state.attempts[item_id] = int(event.get("attempt", 0))
                state.in_flight.discard(item_id)
            elif kind == "quarantined":
                state.quarantined[item_id] = str(event.get("error", ""))
                state.in_flight.discard(item_id)
            # "resumed" and unknown forward-compatible types are ignored.
        return state
