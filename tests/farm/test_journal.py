"""Journal format: create/append/replay, crash tolerance, compatibility."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.exceptions import FarmError
from repro.experiments.runner import ExperimentConfig
from repro.farm.journal import (
    SCHEMA,
    JournalState,
    SweepJournal,
    WorkItem,
    config_fingerprint,
    sweep_config_digest,
    work_item_id,
)


def _items(count: int = 3, digest: str = "d" * 64) -> list[WorkItem]:
    return [
        WorkItem(
            index=i,
            id=work_item_id("srand", 3, "SAT-MapIt", "homogeneous", digest)[:40]
            + f"{i:024d}",
            kernel="srand",
            size=3,
            mapper="SAT-MapIt",
            scenario="homogeneous",
        )
        for i in range(count)
    ]


class TestDigest:
    def test_digest_is_stable_for_equal_configs(self):
        assert sweep_config_digest(ExperimentConfig()) == sweep_config_digest(
            ExperimentConfig()
        )

    def test_digest_changes_with_protocol_fields(self):
        base = sweep_config_digest(ExperimentConfig())
        assert sweep_config_digest(ExperimentConfig(timeout=1.0)) != base
        assert sweep_config_digest(ExperimentConfig(kernels=("srand",))) != base

    def test_default_digest_is_pinned(self):
        # Journals written while ``lease_ttl`` and the retry cap still
        # existed (both excluded from the digest) must keep resuming: same
        # digest, same item IDs.
        digest = sweep_config_digest(ExperimentConfig())
        assert set(config_fingerprint(ExperimentConfig())) == {
            f.name for f in dataclasses.fields(ExperimentConfig)
        }
        assert digest == (
            "667f457b92f4b3db56705c864d983654ecb7b9d01a76e03cf3ca22cdb501c196"
        )
        assert work_item_id("srand", 3, "SAT-MapIt", "homogeneous", digest) == (
            "c2645f8f85bee5fdc20a6d700d50a4af230edf4b652067f26811a353992f5661"
        )

    def test_item_ids_are_distinct_per_coordinate(self):
        digest = sweep_config_digest(ExperimentConfig())
        ids = {
            work_item_id(kernel, size, mapper, scenario, digest)
            for kernel in ("srand", "basicmath")
            for size in (2, 3)
            for mapper in ("SAT-MapIt", "RAMP")
            for scenario in ("homogeneous", "mem_edge")
        }
        assert len(ids) == 16


class TestCreateReplay:
    def test_roundtrip(self, tmp_path):
        items = _items()
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        journal.append("lease", id=items[0].id, worker=0, attempt=0)
        journal.append("done", id=items[0].id, record={"ii": 3})
        journal.append("lease", id=items[1].id, worker=1, attempt=0)
        journal.close()

        state = journal.replay()
        assert isinstance(state, JournalState)
        assert state.config_digest == "cfg"
        assert [item.id for item in state.items] == [item.id for item in items]
        assert state.done == {items[0].id: {"ii": 3}}
        # The unresolved lease was in flight at the crash point.
        assert state.in_flight == {items[1].id}

    def test_create_syncs_once_after_every_item(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append(len(journal.path.read_text().splitlines()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", _items(5))
        # Header plus five item lines, all on disk at the one fsync.
        assert synced == [6]
        journal.append("lease", id="x", worker=0)
        assert synced == [6]
        journal.sync()
        journal.close()
        assert synced == [6, 7]

    def test_create_refuses_existing_journal(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.create("cfg", _items(1))
        journal.close()
        with pytest.raises(FarmError, match="resume"):
            SweepJournal(tmp_path).create("cfg", _items(1))

    def test_replay_missing_journal(self, tmp_path):
        with pytest.raises(FarmError, match="no sweep journal"):
            SweepJournal(tmp_path / "nowhere").replay()

    def test_retry_lines_of_older_journals_are_skipped(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        journal.append("lease", id=items[0].id, worker=0, attempt=0)
        journal.append("failed", id=items[0].id, error="boom", kind="transient",
                       attempt=0)
        journal.append("requeued", id=items[0].id, attempt=1, backoff_s=0.1)
        journal.append("lease", id=items[0].id, worker=1, attempt=1)
        journal.append("done", id=items[0].id, record={"ii": 3})
        journal.append("lease", id=items[1].id, worker=0, attempt=0)
        journal.append("failed", id=items[1].id, error="boom", kind="transient",
                       attempt=0)
        journal.close()

        state = journal.replay()
        assert state.done == {items[0].id: {"ii": 3}}
        assert state.in_flight == {items[1].id}  # pending again on resume


class TestCrashTolerance:
    def test_torn_final_line_is_ignored(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        journal.append("done", id=items[0].id, record={"ii": 4})
        journal.close()
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "id": "trunc')  # killed mid-append

        state = journal.replay()
        assert state.done == {items[0].id: {"ii": 4}}

    def test_midfile_corruption_raises(self, tmp_path):
        items = _items(2)
        journal = SweepJournal(tmp_path)
        journal.create("cfg", items)
        journal.close()
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"type": "item", "broken'
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FarmError, match="corrupt journal line"):
            journal.replay()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"type": "done", "id": "x"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(FarmError, match="missing journal header"):
            SweepJournal(tmp_path).replay()

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": "other/9",
                        "config_digest": "cfg"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(FarmError, match="schema"):
            SweepJournal(tmp_path).replay()

    def test_unknown_event_types_are_forward_compatible(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.create("cfg", _items(1))
        journal.append("telemetry", id="whatever", extra=1)
        journal.append("resumed", done=0, rerun=0)
        journal.close()
        state = journal.replay()  # must not raise
        assert state.config_digest == "cfg"
        assert SCHEMA.startswith("satmapit-farm-journal/")
