"""The farm runs each item once and ends it in one record.

A fault-free farm sweep equals the serial one.  A worker that is killed,
wedged or runaway, and an item that raises, each end in one failure record
after one run, and every other record stays what the clean sweep gives.
Faults are injected through a monkeypatched ``runner.run_single``: the
farm forks its workers, so they inherit the patch.  The sweeps are tiny
to keep the suite inside tier-1 budgets.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import time

import pytest

import repro.experiments.runner as runner_module
import repro.farm.scheduler as scheduler_module
from repro.exceptions import FarmError, MappingError
from repro.experiments.runner import (
    CRASHED,
    DEADLINE,
    ERROR,
    HOMOGENEOUS,
    INFEASIBLE,
    PATHSEEKER,
    RAMP,
    SAT_MAPIT,
    ExperimentConfig,
    RunRecord,
    run_sweep,
)
from repro.farm.journal import WorkItem

FAST = ExperimentConfig(
    kernels=("srand",),
    sizes=(3,),
    mappers=(SAT_MAPIT, RAMP),
    timeout=15.0,
)

#: Four items; the last one is the faulty one.
GRID = ExperimentConfig(
    kernels=("srand", "basicmath"),
    sizes=(3,),
    mappers=(SAT_MAPIT, RAMP),
    timeout=3.0,
)
FAULTY = ("basicmath", 3, RAMP)


def _shape(sweep):
    return [
        (r.kernel, r.size, r.mapper, r.scenario, r.status, r.ii)
        for r in sweep.records
    ]


def _comparable(record) -> dict:
    """A record without its timings and farm provenance."""
    data = dataclasses.asdict(record)
    for name in ("mapping_time", "seed_time", "resumed"):
        del data[name]
    return data


def _calls(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def _patched(fault, calls, target=FAULTY):
    """``run_single`` that logs every call to ``calls`` and runs ``fault``
    on the ``target`` item before solving it."""
    real_run_single = runner_module.run_single

    def run_single(kernel, size, mapper_name, config=None, scenario=HOMOGENEOUS):
        with calls.open("a", encoding="utf-8") as log:
            log.write(f"{kernel} {size} {mapper_name}\n")
        if (kernel, size, mapper_name) == target:
            fault()
        return real_run_single(kernel, size, mapper_name, config, scenario)

    return run_single


def _signal_self(signum):
    return lambda: os.kill(os.getpid(), signum)


def _raise(exc):
    def fault():
        raise exc

    return fault


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference sweep (serial path)."""
    return run_sweep(FAST)


@pytest.fixture(scope="module")
def clean_grid():
    return run_sweep(GRID)


class TestFarmMatchesSerial:
    def test_records_and_stats(self, clean):
        farmed = run_sweep(FAST, jobs=2)
        assert _shape(farmed) == _shape(clean)
        assert farmed.farm is not None
        assert farmed.farm.completed == farmed.farm.items == len(clean.records)
        assert farmed.farm.retries == 0
        assert farmed.farm.worker_crashes == 0
        assert clean.farm is None  # serial sweeps bypass the farm


class TestJournalDurability:
    def test_done_lines_are_synced_before_they_are_reported(
        self, monkeypatch, tmp_path
    ):
        """One fsync per scheduler wake-up, and never a ``done`` record
        reported (or returned) before the fsync that covers it."""
        path = tmp_path / "journal" / "journal.jsonl"
        synced_done, reported = [], []
        fsync = os.fsync

        def done_lines() -> int:
            return sum('"type": "done"' in line for line in _calls(path))

        def recording_fsync(fd):
            fsync(fd)
            synced_done.append(done_lines())

        def report(record):
            reported.append(record)
            assert len(reported) <= synced_done[-1]

        monkeypatch.setattr(os, "fsync", recording_fsync)
        outcome = scheduler_module.run_farm(
            GRID,
            scheduler_module.FarmConfig(jobs=2, journal_dir=str(path.parent)),
            report=report,
        )
        assert len(reported) == len(outcome.records) == 4
        assert done_lines() == synced_done[-1] == 4
        # The fresh journal's one sync, then at most one per done record.
        assert synced_done[0] == 0
        assert len(synced_done) <= 1 + 4


#: fault -> (status, how ``failure`` is checked, (crashes, deadlines)).
CASES = {
    "sigkill": (
        _signal_self(signal.SIGKILL), CRASHED,
        lambda failure: "SIGKILL" in failure, (1, 0),
    ),
    "sigstop": (
        _signal_self(signal.SIGSTOP), DEADLINE,
        lambda failure: failure.startswith("deadline of 3.5s exceeded"), (0, 1),
    ),
    "mapping-error": (
        _raise(MappingError("injected: cannot fit")), INFEASIBLE,
        lambda failure: failure == "MappingError: injected: cannot fit", (0, 0),
    ),
    "runtime-error": (
        _raise(RuntimeError("boom")), ERROR,
        lambda failure: failure == "RuntimeError: boom", (0, 0),
    ),
}


class TestFailureRecords:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fault_ends_in_one_record_after_one_run(
        self, case, clean_grid, monkeypatch, tmp_path
    ):
        fault, status, failure_ok, (crashes, deadlines) = CASES[case]
        calls = tmp_path / "calls"
        monkeypatch.setattr(runner_module, "run_single", _patched(fault, calls))
        # The wedged worker is reaped 0.5 s past its 3 s budget.
        monkeypatch.setattr(scheduler_module, "_DEADLINE_GRACE", 0.5)
        sweep = run_sweep(GRID, jobs=2)

        # Every item, the faulty one included, ran exactly once.
        assert sorted(_calls(calls)) == sorted(
            f"{r.kernel} {r.size} {r.mapper}" for r in clean_grid.records
        )
        for record, reference in zip(sweep.records, clean_grid.records, strict=True):
            if (record.kernel, record.size, record.mapper) == FAULTY:
                assert record.status == status
                assert failure_ok(record.failure), record.failure
                assert record.ii is None
            else:
                assert _comparable(record) == _comparable(reference)
        farm = sweep.farm
        assert farm.completed == farm.items == len(sweep.records)
        assert farm.retries == 0
        assert (farm.worker_crashes, farm.deadlines_expired) == (crashes, deadlines)

    def test_sole_worker_crash_forces_respawn(self, clean, monkeypatch, tmp_path):
        # With one worker, its death leaves more outstanding work than
        # live workers: the scheduler must respawn or the sweep hangs.
        calls = tmp_path / "calls"
        monkeypatch.setattr(
            runner_module, "run_single",
            _patched(_signal_self(signal.SIGKILL), calls, ("srand", 3, SAT_MAPIT)),
        )
        sweep = run_sweep(FAST, jobs=1, journal_dir=str(tmp_path / "journal"))
        assert [r.status for r in sweep.records] == [CRASHED, "mapped"]
        assert sweep.records[1].ii == clean.records[1].ii
        assert sweep.farm.worker_crashes == 1
        assert sweep.farm.worker_respawns == 1


class _OneItemConn:
    """A worker's pipe end that hands out one item, then reads as closed."""

    def __init__(self, item: WorkItem) -> None:
        self._payloads = [item.payload()]
        self.sent: list = []

    def recv(self):
        if not self._payloads:
            raise EOFError
        return self._payloads.pop()

    def send(self, message) -> None:
        self.sent.append(message)


class TestWorkerRecords:
    """The worker loop, run in this process: what it sends for one item."""

    ITEM = WorkItem(index=0, id="i" * 64, kernel="gsm", size=3, mapper=RAMP,
                    scenario=HOMOGENEOUS)

    def _run(self, monkeypatch, run_single):
        monkeypatch.setattr(runner_module, "run_single", run_single)
        conn = _OneItemConn(self.ITEM)
        with pytest.raises(EOFError):
            scheduler_module._farm_worker(conn, GRID)
        ((item_id, record),) = conn.sent
        assert item_id == self.ITEM.id
        return record

    @pytest.mark.parametrize(
        "exc, status, failure",
        [
            (MappingError("no route"), INFEASIBLE, "MappingError: no route"),
            (RuntimeError("boom"), ERROR, "RuntimeError: boom"),
            (KeyError("k"), ERROR, "KeyError: 'k'"),
        ],
    )
    def test_exception_becomes_one_failure_record(
        self, monkeypatch, exc, status, failure
    ):
        def run_single(*args):
            raise exc

        record = self._run(monkeypatch, run_single)
        assert (record["status"], record["failure"]) == (status, failure)
        assert (record["kernel"], record["size"], record["mapper"]) == (
            "gsm", 3, RAMP
        )
        assert record["ii"] is None

    def test_verdict_is_sent_as_the_mappers_record(self, monkeypatch):
        verdict = RunRecord("gsm", 3, RAMP, "failed", None, 1.5, 4, 6, 30)
        record = self._run(monkeypatch, lambda *args: verdict)
        assert record == dataclasses.asdict(verdict)
        assert record["failure"] == ""


class TestDeadline:
    def test_runaway_item_ends_in_a_deadline_record(self, monkeypatch, tmp_path):
        # Alive and busy, never returning: the SIGTERM of the reap ends it.
        def runaway():
            while True:
                pass

        calls = tmp_path / "calls"
        target = ("srand", 3, RAMP)
        monkeypatch.setattr(runner_module, "run_single",
                            _patched(runaway, calls, target))
        monkeypatch.setattr(scheduler_module, "_DEADLINE_GRACE", 0.5)
        config = dataclasses.replace(FAST, timeout=2.0)
        start = time.monotonic()
        sweep = run_sweep(config, jobs=2)
        assert time.monotonic() - start < 30.0
        assert sweep.farm.deadlines_expired == 1
        by_mapper = {r.mapper: r for r in sweep.records}
        assert by_mapper[RAMP].status == DEADLINE
        assert "deadline" in by_mapper[RAMP].failure
        assert by_mapper[SAT_MAPIT].status == "mapped"
        assert sorted(_calls(calls)) == ["srand 3 RAMP", "srand 3 SAT-MapIt"]

    def test_budget_covers_every_pathseeker_repeat(self):
        config = ExperimentConfig(timeout=4.0, pathseeker_repeats=3)
        items = {item.mapper: item for item in
                 scheduler_module.materialise_items(config)}
        grace = scheduler_module._DEADLINE_GRACE
        budget = scheduler_module.item_budget
        assert budget(config, items[SAT_MAPIT]) == 4.0 + grace
        assert budget(config, items[RAMP]) == 4.0 + grace
        assert budget(config, items[PATHSEEKER]) == 12.0 + grace


class TestResume:
    def test_resume_reruns_only_the_crashed_item(
        self, clean_grid, monkeypatch, tmp_path
    ):
        journal = str(tmp_path / "journal")
        calls = tmp_path / "calls"
        monkeypatch.setattr(
            runner_module, "run_single",
            _patched(_signal_self(signal.SIGKILL), calls),
        )
        first = run_sweep(GRID, jobs=2, journal_dir=journal)
        assert [r.status for r in first.records].count(CRASHED) == 1

        calls.unlink()
        monkeypatch.undo()
        monkeypatch.setattr(runner_module, "run_single",
                            _patched(lambda: None, calls))
        resumed = run_sweep(GRID, jobs=2, journal_dir=journal, resume=True)
        assert _calls(calls) == ["basicmath 3 RAMP"]
        assert resumed.farm.retries == 1
        assert resumed.farm.completed == 1
        assert resumed.farm.skipped == len(resumed.records) - 1
        assert [r.resumed for r in resumed.records] == [True, True, True, False]
        assert [_comparable(r) for r in resumed.records] == [
            _comparable(r) for r in clean_grid.records
        ]

    def test_other_failure_records_are_served_from_the_journal(
        self, monkeypatch, tmp_path
    ):
        # A solve is deterministic: re-running an item that raised would
        # raise again, so the resume keeps its record.
        journal = str(tmp_path / "journal")
        calls = tmp_path / "calls"
        monkeypatch.setattr(runner_module, "run_single",
                            _patched(_raise(RuntimeError("boom")), calls))
        run_sweep(GRID, jobs=2, journal_dir=journal)
        calls.unlink()
        resumed = run_sweep(GRID, jobs=2, journal_dir=journal, resume=True)
        assert _calls(calls) == []
        assert resumed.farm.retries == 0
        assert resumed.records[-1].status == ERROR
        assert resumed.records[-1].resumed


@pytest.fixture(scope="module")
def fast_journal(tmp_path_factory):
    """A finished two-item farm journal of ``FAST``."""
    journal = tmp_path_factory.mktemp("fast") / "journal"
    run_sweep(FAST, jobs=2, journal_dir=str(journal))
    return journal


class TestResumeRule:
    @pytest.mark.parametrize(
        "status, rerun",
        [("mapped", False), ("failed", False), ("timeout", False),
         (INFEASIBLE, False), (ERROR, False), (CRASHED, True),
         (DEADLINE, True)],
    )
    def test_only_worker_failures_run_again(
        self, fast_journal, monkeypatch, tmp_path, status, rerun
    ):
        # A record of the last item, rewritten to ``status``: only a dead
        # or reaped worker can end differently on a second run.
        journal = tmp_path / "journal"
        shutil.copytree(fast_journal, journal)
        path = journal / "journal.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (ramp,) = [e["record"] for e in events
                   if e["type"] == "done" and e["record"]["mapper"] == RAMP]
        ramp.update(status=status, failure="why")
        path.write_text("".join(json.dumps(e) + "\n" for e in events))

        calls = tmp_path / "calls"
        monkeypatch.setattr(runner_module, "run_single",
                            _patched(lambda: None, calls))
        resumed = run_sweep(FAST, jobs=2, journal_dir=str(journal), resume=True)
        assert _calls(calls) == (["srand 3 RAMP"] if rerun else [])
        assert resumed.farm.retries == int(rerun)
        assert resumed.farm.skipped == 2 - int(rerun)
        ramp = resumed.records[-1]
        assert ramp.mapper == RAMP
        assert ramp.resumed is not rerun
        assert ramp.status == ("mapped" if rerun else status)


class TestWarmWorkers:
    def test_forked_worker_finds_the_native_core_loaded(self, monkeypatch):
        from repro.sat import native

        real_run_single = runner_module.run_single

        def probe(kernel, size, mapper_name, config=None, scenario="homogeneous"):
            if native._status is None:
                raise MappingError("worker started without the native core loaded")
            return real_run_single(kernel, size, mapper_name, config, scenario)

        # Unload the core in this process first: the farm must load it
        # before forking, not inherit it from an earlier test.
        monkeypatch.setattr(native, "_status", None)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(runner_module, "run_single", probe)
        sweep = run_sweep(FAST, jobs=2)
        assert [r.status for r in sweep.records] == ["mapped", "mapped"]

    def test_core_that_cannot_load_fails_the_sweep_once(self, monkeypatch, tmp_path):
        """No worker starts and no journal is written: the loader's error
        surfaces from the sweep call itself."""
        from repro.sat import native
        from repro.sat.backend import BackendUnavailableError

        monkeypatch.setattr(native, "_status", None)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "cache_root", lambda: tmp_path / "cache")
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        spawned = []
        monkeypatch.setattr(scheduler_module._Pool, "spawn",
                            lambda pool: spawned.append(pool))
        journal = tmp_path / "journal"
        start = time.monotonic()
        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            run_sweep(FAST, jobs=2, journal_dir=str(journal))
        assert time.monotonic() - start < 5.0
        assert spawned == []
        assert not journal.exists() or not any(journal.iterdir())


class TestJournalGuards:
    def test_resume_with_different_config_refuses(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_sweep(FAST, jobs=2, journal_dir=journal)
        other = dataclasses.replace(FAST, timeout=FAST.timeout + 1.0)
        with pytest.raises(FarmError, match="different"):
            run_sweep(other, jobs=2, journal_dir=journal, resume=True)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_sweep(FAST, jobs=2, journal_dir=journal)
        with pytest.raises(FarmError, match="resume"):
            run_sweep(FAST, jobs=2, journal_dir=journal)

    def test_resume_serves_records_with_fields_since_removed(self, clean, tmp_path):
        # Records journalled by an older farm carry a ``retries`` field
        # the record no longer has.
        journal = tmp_path / "journal"
        run_sweep(FAST, jobs=2, journal_dir=str(journal))
        path = journal / "journal.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            if event["type"] == "done":
                event["record"]["retries"] = 0
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        resumed = run_sweep(FAST, jobs=2, journal_dir=str(journal), resume=True)
        assert resumed.farm.skipped == len(resumed.records)
        assert all(r.resumed for r in resumed.records)
        assert _shape(resumed) == _shape(clean)
