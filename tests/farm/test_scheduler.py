"""Chaos suite: the farm under injected faults must produce exactly the
records of a fault-free sweep, with nonzero fault counters.

Every fault here is deterministic (see repro.farm.faults), so these tests
assert equality, not survival.  The sweeps are tiny (one kernel, one
size, two mappers) to keep the suite inside tier-1 budgets.
"""

from __future__ import annotations

import time

import pytest

import repro.experiments.runner as runner_module
import repro.farm.scheduler as scheduler_module
from repro.exceptions import FarmError, MappingError
from repro.experiments.runner import (
    PATHSEEKER,
    RAMP,
    SAT_MAPIT,
    ExperimentConfig,
    run_sweep,
)
from repro.farm.faults import FaultPlan

FAST = ExperimentConfig(
    kernels=("srand",),
    sizes=(3,),
    mappers=(SAT_MAPIT, RAMP),
    timeout=15.0,
)


def _shape(sweep):
    return [
        (r.kernel, r.size, r.mapper, r.scenario, r.status, r.ii)
        for r in sweep.records
    ]


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference sweep (serial path)."""
    return run_sweep(FAST)


class TestFarmMatchesSerial:
    def test_records_and_stats(self, clean):
        farmed = run_sweep(FAST, jobs=2)
        assert _shape(farmed) == _shape(clean)
        assert farmed.farm is not None
        assert farmed.farm.completed == farmed.farm.items == len(clean.records)
        assert farmed.farm.retries == 0
        assert farmed.farm.worker_crashes == 0
        assert clean.farm is None  # serial sweeps bypass the farm

    def test_portfolio_items_race_lanes_inside_farm_workers(self, clean):
        # Farm workers are not daemons, so a SAT-MapIt item may start
        # portfolio lanes of its own.
        config = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=FAST.timeout,
            search="portfolio",
        )
        farmed = run_sweep(config, jobs=2)
        assert _shape(farmed) == _shape(clean)
        assert farmed.farm.quarantined == 0

    def test_env_chaos_routes_serial_sweep_through_farm(self, clean, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "backend-rate=1.0,backend-attempts=1")
        faulted = run_sweep(FAST)  # jobs=1, but chaos forces the farm
        assert _shape(faulted) == _shape(clean)
        assert faulted.farm is not None
        assert faulted.farm.retries == len(clean.records)


class TestKillChaos:
    def test_worker_kill_is_retried_to_identical_records(self, clean):
        # Worker 0 SIGKILLs itself upon receiving its first item, while
        # the lease is open: the scheduler must requeue and respawn.
        plan = FaultPlan(kill_worker_after=0)
        faulted = run_sweep(FAST, jobs=2, faults=plan)
        assert _shape(faulted) == _shape(clean)
        assert faulted.farm.worker_crashes >= 1
        assert faulted.farm.retries >= 1
        assert sum(r.retries for r in faulted.records) >= 1

    def test_sole_worker_kill_forces_respawn(self, clean):
        # With one worker, its death leaves more outstanding work than
        # live workers — the scheduler must respawn or the sweep hangs.
        plan = FaultPlan(kill_worker_after=0)
        faulted = run_sweep(FAST, jobs=1, journal_dir=None, faults=plan)
        assert _shape(faulted) == _shape(clean)
        assert faulted.farm.worker_crashes >= 1
        assert faulted.farm.worker_respawns >= 1


class TestWedgeChaos:
    def test_sigstop_wedge_expires_lease_and_recovers(self, clean, monkeypatch):
        # Worker 0 SIGSTOPs itself with an item leased.  Its process stays
        # alive, so only the item deadline can save the sweep: the lease
        # must expire, the worker must be reaped (SIGKILL reaches stopped
        # processes), and the item must be re-run elsewhere.
        monkeypatch.setattr(scheduler_module, "_DEADLINE_GRACE", 0.5)
        plan = FaultPlan(wedge_worker_after=0)
        config = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=2.0,
        )
        faulted = run_sweep(config, jobs=2, faults=plan)
        assert _shape(faulted) == _shape(clean)
        assert faulted.farm.deadlines_expired >= 1
        assert faulted.farm.retries >= 1


class TestDeadline:
    def test_runaway_item_is_reaped_and_quarantined(self, monkeypatch):
        real_run_single = runner_module.run_single

        def runaway(kernel, size, mapper_name, config=None, scenario="homogeneous"):
            while mapper_name == RAMP:
                pass  # an item that never returns, and never crashes
            return real_run_single(kernel, size, mapper_name, config, scenario)

        # Forked workers resolve the patched function; the deadline grace
        # is read by the scheduler in this process.
        monkeypatch.setattr(runner_module, "run_single", runaway)
        monkeypatch.setattr(scheduler_module, "_DEADLINE_GRACE", 0.5)
        config = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=2.0,
            max_retries=1,
        )
        start = time.monotonic()
        sweep = run_sweep(config, jobs=2)
        assert time.monotonic() - start < 30.0
        assert sweep.farm.quarantined == 1
        assert sweep.farm.deadlines_expired == 2  # first try and one retry
        by_mapper = {r.mapper: r for r in sweep.records}
        bad = by_mapper[RAMP]
        assert bad.quarantined and bad.status == "failed"
        assert "deadline" in bad.failure
        assert by_mapper[SAT_MAPIT].status == "mapped"

    def test_budget_covers_every_pathseeker_repeat(self):
        config = ExperimentConfig(timeout=4.0, pathseeker_repeats=3)
        items = {item.mapper: item for item in
                 scheduler_module.materialise_items(config)}
        grace = scheduler_module._DEADLINE_GRACE
        budget = scheduler_module.item_budget
        assert budget(config, items[SAT_MAPIT]) == 4.0 + grace
        assert budget(config, items[RAMP]) == 4.0 + grace
        assert budget(config, items[PATHSEEKER]) == 12.0 + grace


class TestBackendChaos:
    def test_doomed_first_attempts_converge(self, clean):
        plan = FaultPlan(backend_fail_rate=1.0, backend_fail_attempts=1)
        faulted = run_sweep(FAST, jobs=2, faults=plan)
        assert _shape(faulted) == _shape(clean)
        # Every item burned exactly its one doomed attempt.
        assert faulted.farm.retries == len(clean.records)
        assert all(r.retries == 1 for r in faulted.records)
        assert faulted.farm.quarantined == 0

    def test_cache_corruption_mid_run_is_recovered(self, clean, tmp_path):
        plan = FaultPlan(corrupt_cache_after=0)
        config = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=FAST.timeout,
            cache_dir=str(tmp_path / "cache"),
        )
        first = run_sweep(config, jobs=2, faults=plan)
        assert _shape(first) == _shape(clean)
        # The corrupted entry must be detected and re-solved, never served:
        # a second sweep over the same cache still produces clean records.
        second = run_sweep(config, jobs=2)
        assert _shape(second) == _shape(clean)


class TestQuarantine:
    def test_permanent_failure_is_quarantined_not_retried(self, monkeypatch):
        real_run_single = runner_module.run_single

        def poisoned(kernel, size, mapper_name, config=None, scenario="homogeneous"):
            if mapper_name == RAMP:
                raise MappingError("injected: kernel cannot fit this fabric")
            return real_run_single(kernel, size, mapper_name, config, scenario)

        # Farm workers are forked, so the patched module function is what
        # they resolve at start-up.
        monkeypatch.setattr(runner_module, "run_single", poisoned)
        sweep = run_sweep(FAST, jobs=2)
        assert sweep.farm.quarantined == 1
        assert sweep.farm.retries == 0  # permanent: no retry burned
        by_mapper = {r.mapper: r for r in sweep.records}
        bad = by_mapper[RAMP]
        assert bad.quarantined and bad.status == "failed" and bad.ii is None
        assert "cannot fit" in bad.failure
        assert by_mapper[SAT_MAPIT].status == "mapped"


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
        assert sweep.farm.quarantined == 0
        assert [r.status for r in sweep.records] == ["mapped", "mapped"]

    def test_core_that_cannot_load_fails_the_sweep_once(self, monkeypatch, tmp_path):
        """No worker starts, no item is retried and no journal is written:
        the loader's error surfaces from the sweep call itself."""
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
        assert time.monotonic() - start < 5.0  # no retry backoff
        assert spawned == []
        assert not journal.exists() or not any(journal.iterdir())


class TestJournalGuards:
    def test_resume_with_different_config_refuses(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_sweep(FAST, jobs=2, journal_dir=journal)
        other = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=FAST.timeout + 1.0,  # protocol change
        )
        with pytest.raises(FarmError, match="different"):
            run_sweep(other, jobs=2, journal_dir=journal, resume=True)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_sweep(FAST, jobs=2, journal_dir=journal)
        with pytest.raises(FarmError, match="resume"):
            run_sweep(FAST, jobs=2, journal_dir=journal)

    def test_resume_with_looser_execution_knobs_is_legal(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_sweep(FAST, jobs=2, journal_dir=journal)
        loosened = ExperimentConfig(
            kernels=FAST.kernels,
            sizes=FAST.sizes,
            mappers=FAST.mappers,
            timeout=FAST.timeout,
            max_retries=9,
        )
        resumed = run_sweep(loosened, jobs=2, journal_dir=journal, resume=True)
        assert resumed.farm.resumed
        assert resumed.farm.skipped == len(resumed.records)
        assert all(r.resumed for r in resumed.records)
