"""Job lifecycle: dedup of identical in-flight requests, cancellation
that reaps worker processes, budget watchdog, tenant isolation.

Most tests that monkeypatch the worker function inject the ``fork``
multiprocessing context; everything else exercises the manager's default
forkserver path.  A patched worker also runs on the default path when it
is a module-level function: a forkserver child imports it by name.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

import pytest

import repro.service.jobs as jobs_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
)
from repro.service.protocol import MapRequest, ServiceLimits, outcome_payload


def run(coro):
    return asyncio.run(coro)


def request(tenant: str = "default", timeout: float = 60.0, **config):
    # A fresh DFG per request, like the protocol layer guarantees.
    from repro.dfg.graph import DFG

    dfg = DFG.from_dict(get_kernel("srand").to_dict())
    fields = dict(timeout=timeout, random_seed=0, verbose=False)
    fields.update(config)
    return MapRequest(
        dfg=dfg,
        cgra=CGRA.square(3),
        config=MapperConfig(**fields),
        tenant=tenant,
    )


def _sleepy_worker(conn, dfg, cgra, config):
    time.sleep(600)


def _stubborn_worker(conn, dfg, cgra, config):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


#: Modules a default-context worker must find loaded when it starts.
PRELOADED = (
    "repro.core.encoder",
    "repro.core.mapper",
    "repro.sat.native",
    "repro.experiments.runner",
)


def _modules_probe(conn, dfg, cgra, config):
    conn.send(("ok", {"loaded": [name for name in PRELOADED if name in sys.modules]}))


def _marking_worker(conn, dfg, cgra, config):
    """A sleep standing in for a long search, after a marker in the cache
    directory that shows the worker started."""
    (Path(config.cache_dir) / "started").touch()
    time.sleep(600)


def _fork_manager(**kwargs):
    kwargs.setdefault("mp_context", multiprocessing.get_context("fork"))
    return JobManager(**kwargs)


class TestDedup:
    def test_identical_concurrent_requests_share_one_solve(self, tmp_path):
        """The acceptance property: two identical concurrent submissions
        run exactly one solve."""

        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            first, created_first = manager.submit(request())
            second, created_second = manager.submit(request())
            assert created_first and not created_second
            assert second is first
            assert first.requests == 2
            await first.done_event.wait()
            return manager, first

        manager, job = run(scenario())
        assert job.status == DONE
        assert job.result["ii"] == 3
        assert manager.stats.solves_started == 1
        assert manager.stats.dedup_joined == 1
        assert manager.stats.requests == 2

    def test_finished_job_is_not_joined(self, tmp_path):
        """Dedup covers *in-flight* work only; a repeat after completion
        is a new job served by the persistent cache, in the server."""

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            first, _ = manager.submit(request())
            await first.done_event.wait()
            second, created = manager.submit(request())
            await second.done_event.wait()
            return manager, first, second

        manager, first, second = run(scenario())
        assert second is not first
        assert second.status == DONE
        assert second.result["cache_hit"] is True
        assert manager.stats.dedup_joined == 0
        assert manager.stats.solves_started == 1
        assert manager.stats.cache["hits"] == 1

    def test_different_tenants_never_dedup(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            a, _ = manager.submit(request(tenant="team-a"))
            b, created_b = manager.submit(request(tenant="team-b"))
            assert a is not b and created_b
            await a.done_event.wait()
            await b.done_event.wait()
            return manager

        manager = run(scenario())
        assert manager.stats.solves_started == 2
        assert manager.stats.dedup_joined == 0
        # Tenants share nothing on disk: one namespace directory each.
        assert (tmp_path / "team-a").is_dir()
        assert (tmp_path / "team-b").is_dir()
        assert list((tmp_path / "team-a").glob("*.json"))
        assert list((tmp_path / "team-b").glob("*.json"))

    def test_semantic_config_change_is_a_different_job(self):
        async def scenario():
            manager = JobManager(pool_size=2)
            a, _ = manager.submit(request())
            b, created = manager.submit(request(schedule_slack=2))
            assert a is not b and created
            await a.done_event.wait()
            await b.done_event.wait()
            return manager

        manager = run(scenario())
        assert manager.stats.solves_started == 2


class TestRejection:
    def test_unmappable_request_rejected_before_any_work(self, monkeypatch):
        from repro.exceptions import MappingError

        def refute(dfg, cgra):
            raise MappingError("kernel cannot fit fabric at any II")

        monkeypatch.setattr(jobs_module, "check_kernel_fits", refute)

        async def scenario():
            manager = JobManager(pool_size=1)
            with pytest.raises(MappingError):
                manager.submit(request())
            return manager

        manager = run(scenario())
        assert manager.stats.rejected == 1
        assert manager.stats.solves_started == 0

    def test_unknown_backend_rejected(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            with pytest.raises(Exception):
                manager.submit(request(backend="z3"))
            return manager

        manager = run(scenario())
        assert manager.stats.rejected == 1


class TestCancellation:
    def test_cancel_reaps_the_worker_process(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            while job.pid is None:
                await asyncio.sleep(0.05)
            manager.cancel(job.id)
            await job.done_event.wait()
            return manager, job

        manager, job = run(scenario())
        assert job.status == CANCELLED
        assert manager.stats.cancelled == 1
        assert multiprocessing.active_children() == []

    def test_cancel_escalates_on_sigterm_ignoring_worker(self, monkeypatch):
        """A worker that shrugs off SIGTERM is SIGKILLed after the grace,
        leaving no orphan — the service-side half of the reap discipline."""
        monkeypatch.setattr(jobs_module, "_job_worker", _stubborn_worker)
        monkeypatch.setattr(jobs_module.procs, "_TERM_GRACE", 0.3)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            while job.pid is None:
                await asyncio.sleep(0.05)
            await asyncio.sleep(0.3)  # let the worker install SIG_IGN
            manager.cancel(job.id)
            await job.done_event.wait()
            return manager, job

        manager, job = run(scenario())
        assert job.status == CANCELLED
        assert multiprocessing.active_children() == []

    def test_cancel_reaps_with_the_default_grace(self, monkeypatch):
        """A job worker has no cleanup to wait for, so its reap names no
        grace of its own."""
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)
        graces = []
        reap = jobs_module.procs.reap

        def recording_reap(processes, grace=None):
            graces.append(grace)
            reap(processes, grace)

        monkeypatch.setattr(jobs_module.procs, "reap", recording_reap)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            while job.pid is None:
                await asyncio.sleep(0.05)
            manager.cancel(job.id)
            await asyncio.wait_for(job.done_event.wait(), timeout=30.0)
            return job

        job = run(scenario())
        assert job.status == CANCELLED
        assert graces == [None]
        assert multiprocessing.active_children() == []

    def test_cancel_of_queued_job_never_starts_a_solve(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            running, _ = manager.submit(request())
            queued, _ = manager.submit(request(schedule_slack=2))
            while running.pid is None:
                await asyncio.sleep(0.05)
            manager.cancel(queued.id)
            await queued.done_event.wait()
            manager.cancel(running.id)
            await running.done_event.wait()
            return manager, queued

        manager, queued = run(scenario())
        assert queued.status == CANCELLED
        assert queued.pid is None
        assert manager.stats.solves_started == 1

    def test_shutdown_cancels_everything(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=2)
            first, _ = manager.submit(request())
            second, _ = manager.submit(request(schedule_slack=2))
            while first.pid is None or second.pid is None:
                await asyncio.sleep(0.05)
            await manager.shutdown()
            return first, second

        first, second = run(scenario())
        assert first.status == CANCELLED
        assert second.status == CANCELLED
        assert multiprocessing.active_children() == []


class TestDefaultContext:
    """The default start path: workers fork from a preloaded forkserver."""

    def test_worker_starts_with_the_mapper_stack_loaded(self, monkeypatch):
        # The forkserver skips a preload name it cannot import without a
        # word, so only a worker's own view shows the preload took effect.
        monkeypatch.setattr(jobs_module, "_job_worker", _modules_probe)

        async def scenario():
            manager = JobManager(pool_size=1)
            job, _ = manager.submit(request())
            await job.done_event.wait()
            return job

        job = run(scenario())
        assert job.status == DONE, job.error
        assert job.result["loaded"] == list(PRELOADED)

    def test_cancel_reaps_a_running_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _marking_worker)

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            job, _ = manager.submit(request())
            deadline = time.monotonic() + 60.0
            while not (tmp_path / "started").exists():
                assert time.monotonic() < deadline, "worker never started"
                await asyncio.sleep(0.02)
            manager.cancel(job.id)
            await job.done_event.wait()
            return manager, job

        manager, job = run(scenario())
        assert job.status == CANCELLED
        assert manager.stats.cancelled == 1
        with pytest.raises(ProcessLookupError):
            os.kill(job.pid, 0)
        assert multiprocessing.active_children() == []


class TestBudget:
    def test_wedged_worker_is_reaped_at_the_hard_ceiling(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)
        monkeypatch.setattr(jobs_module, "_BUDGET_GRACE", 0.3)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request(timeout=0.2))
            await job.done_event.wait()
            return job

        job = run(scenario())
        assert job.status == FAILED
        assert "budget" in job.error
        assert multiprocessing.active_children() == []


class TestStats:
    def test_stats_payload_shape(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            job, _ = manager.submit(request(tenant="team-a"))
            await job.done_event.wait()
            return manager

        manager = run(scenario())
        payload = manager.stats_payload()
        assert payload["service"]["pool_size"] == 2
        assert payload["requests"]["completed"] == 1
        assert payload["cache"]["directory"]["tenants"]["team-a"]["entries"] == 1
        # A fresh miss-then-write run: no hits yet.
        assert payload["cache"]["misses"] >= 1
        assert payload["cache"]["writes"] >= 1

    def test_stats_sweeps_stale_temps(self, tmp_path):
        manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
        namespace = tmp_path / "default"
        namespace.mkdir()
        stale = namespace / "orphan.tmp"
        stale.write_text("{")
        old = time.time() - 3600
        import os

        os.utime(stale, (old, old))
        manager._tenants.add("default")
        payload = manager.stats_payload()
        assert not stale.exists()
        assert payload["cache"]["temp_files_swept"] == 1


def _exiting_worker(conn, dfg, cgra, config):
    import os
    os._exit(3)  # dies without ever writing a verdict to the pipe


def _self_killing_worker(conn, dfg, cgra, config):
    import os
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerCrash:
    """A worker that dies without a verdict is not a mapping failure — it
    is machine trouble, and the job must say so in a structured way."""

    def _crash(self, monkeypatch, worker):
        monkeypatch.setattr(jobs_module, "_job_worker", worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            await job.done_event.wait()
            return manager, job

        return run(scenario())

    def test_exit_code_death_is_structured(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _exiting_worker)
        assert job.status == FAILED
        assert job.failure == {
            "kind": "worker_crashed",
            "exit_code": 3,
            "signal": None,
            "signal_name": None,
        }
        assert job.error == "mapping worker died unexpectedly (exit code 3)"
        assert manager.stats.worker_crashes == 1
        assert manager.stats.failed == 1

    def test_signal_death_is_structured(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _self_killing_worker)
        assert job.status == FAILED
        assert job.failure == {
            "kind": "worker_crashed",
            "exit_code": None,
            "signal": int(signal.SIGKILL),
            "signal_name": "SIGKILL",
        }
        assert job.error == (
            "mapping worker died unexpectedly (killed by SIGKILL)"
        )
        assert manager.stats.worker_crashes == 1

    def test_crash_detail_reaches_payload_and_stats(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _self_killing_worker)
        payload = job.to_payload()
        assert payload["failure"]["kind"] == "worker_crashed"
        assert payload["failure"]["signal_name"] == "SIGKILL"
        stats = manager.stats_payload()
        assert stats["requests"]["worker_crashes"] == 1


def _prefill(manager: JobManager, req: MapRequest):
    """Map ``req`` in this process into ``manager``'s cache namespace."""
    return SatMapItMapper(manager._specialise(req)).map(req.dfg, req.cgra)


async def _answer(manager: JobManager, req: MapRequest):
    job, _ = manager.submit(req)
    await job.done_event.wait()
    return job


class TestServerSideHits:
    """A cache hit is answered in the server: no slot, no worker process."""

    def test_one_lookup_per_request_and_corrupt_entries_are_resolved(
        self, tmp_path
    ):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            cold = await _answer(manager, request())
            warm = await _answer(manager, request())
            counts = dict(manager.stats.cache), manager.stats.solves_started
            entry = tmp_path / "default" / f"{cold.cache_key}.json"
            entry.write_text("{ not json")
            again = await _answer(manager, request())
            return manager, cold, warm, again, counts

        manager, cold, warm, again, (counts, solves) = run(scenario())
        assert warm.result["cache_hit"] is True and warm.pid is None
        assert (counts["hits"], counts["misses"], counts["writes"]) == (1, 1, 1)
        assert solves == 1
        # The garbage entry was counted, deleted and re-solved by a worker.
        cache = manager.stats.cache
        assert cache["corrupted"] == 1
        assert (cache["hits"], cache["misses"], cache["writes"]) == (1, 2, 2)
        assert manager.stats.solves_started == 2
        assert again.status == DONE and again.pid is not None
        assert again.result["cache_hit"] is False
        assert again.result["ii"] == cold.result["ii"]

    def test_hits_bypass_a_saturated_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=1, cache_dir=str(tmp_path))
            _prefill(manager, request())
            sleeper, _ = manager.submit(request(schedule_slack=2))
            try:
                while sleeper.pid is None:
                    await asyncio.sleep(0.05)
                hit, _ = manager.submit(request())
                # Bounded: a hit queued behind the sleeper would never end.
                await asyncio.wait_for(hit.done_event.wait(), timeout=30.0)
                still_running = sleeper.status == RUNNING
                service = manager.stats_payload()["service"]
                assert (service["running"], service["queued"]) == (1, 0)
            finally:
                await manager.shutdown()
            return manager, hit, still_running

        manager, hit, still_running = run(scenario())
        assert still_running
        assert hit.status == DONE and hit.pid is None
        assert hit.result["cache_hit"] is True
        assert manager.stats.solves_started == 1
        assert multiprocessing.active_children() == []

    def test_served_hit_equals_the_mapper_hit(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            _prefill(manager, request())
            return manager, await _answer(manager, request())

        manager, hit = run(scenario())
        req = request()
        direct = outcome_payload(
            SatMapItMapper(manager._specialise(req)).map(req.dfg, req.cgra)
        )
        assert direct["cache_hit"] is True
        served = dict(hit.result)
        del served["total_time_s"], direct["total_time_s"]
        assert served == direct
        assert manager.stats.solves_started == 0


class TestHitsOnTheLoop:
    """A hit is answered inside ``submit()``, on the event loop: the job
    comes back finished, with no task, no thread and no wait."""

    def test_hit_needs_no_thread_and_no_task(self, tmp_path, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a cache hit must not hop to a thread")

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            _prefill(manager, request())
            monkeypatch.setattr(asyncio, "to_thread", no_thread)
            tasks = asyncio.all_tasks()
            job, created = manager.submit(request())
            return manager, job, created, asyncio.all_tasks() == tasks

        manager, job, created, no_new_task = run(scenario())
        assert created and no_new_task
        assert job.status == DONE and job.finished_at is not None
        assert job.done_event.is_set() and job.pid is None
        assert job.result["cache_hit"] is True and job.result["ii"] == 3
        assert manager._inflight == {}

    def test_hits_keep_the_stats_exact(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            await _answer(manager, request())
            before = manager.stats_payload()
            for _ in range(3):
                manager.submit(request())
            return before, manager.stats_payload()

        before, after = run(scenario())
        assert after["cache"]["hits"] == before["cache"]["hits"] + 3
        assert after["cache"]["misses"] == before["cache"]["misses"]
        received, completed, solves = (
            after["requests"][name] - before["requests"][name]
            for name in ("received", "completed", "solves_started")
        )
        assert (received, completed, solves) == (3, 3, 0)
        assert after["service"]["queued"] == after["service"]["running"] == 0

    def test_registry_prunes_jobs_finished_inside_submit(self, tmp_path):
        caps = [40 + offset for offset in range(3)]

        async def scenario():
            manager = JobManager(
                pool_size=1, cache_dir=str(tmp_path), max_jobs_tracked=4,
            )
            for cap in caps:
                _prefill(manager, request(max_ii=cap))
            order = []
            for _round in range(3):
                for cap in caps:
                    job, _ = manager.submit(request(max_ii=cap))
                    assert job.status == DONE
                    order.append(job)
            return manager, order

        manager, order = run(scenario())
        # The newest four remain, the oldest first in the pruning queue.
        assert list(manager.jobs) == [job.id for job in order[-4:]]
        assert list(manager._finished) == order[-4:]
        slots = [(job.tenant, job.cache_key) for job in order[-4:]]
        assert manager._slot_jobs == {
            slot: slots.count(slot) for slot in set(slots)
        }
        assert set(manager._mappings) == set(slots)
        for job in order[-4:]:
            slot = (job.tenant, job.cache_key)
            assert job.result["mapping"] is manager._mappings[slot]

    def test_corrupt_entry_is_discarded_and_solved_as_a_miss(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            cold = await _answer(manager, request())
            entry = tmp_path / "default" / f"{cold.cache_key}.json"
            entry.write_text("{ not json")
            job, _ = manager.submit(request())
            queued = (job.status, entry.exists(), dict(manager.stats.cache))
            await asyncio.wait_for(job.done_event.wait(), timeout=120.0)
            return manager, job, queued

        manager, job, (status, entry_left, cache) = run(scenario())
        assert status == QUEUED and not entry_left
        assert cache["corrupted"] == 1 and cache["hits"] == 0
        assert job.status == DONE and job.pid is not None
        assert job.result["cache_hit"] is False
        assert manager.stats.solves_started == 2

    def test_unusable_cache_root_fails_the_job_and_frees_its_slot(
        self, tmp_path
    ):
        root = tmp_path / "not-a-directory"
        root.write_text("")

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(root))
            first, _ = manager.submit(request())
            second, created = manager.submit(request())
            return manager, first, second, created

        manager, first, second, created = run(scenario())
        assert first.status == FAILED and first.done_event.is_set()
        assert "Error" in first.error
        # Closed, so a repeat is a new job rather than joining the failure.
        assert created and second is not first
        assert manager.stats.failed == 2 and manager.stats.solves_started == 0
        assert manager._inflight == {}

    def test_miss_goes_through_the_pool(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            tasks = asyncio.all_tasks()
            job, _ = manager.submit(request())
            started = len(asyncio.all_tasks() - tasks)
            queued = job.status
            await asyncio.wait_for(job.done_event.wait(), timeout=120.0)
            return manager, job, started, queued

        manager, job, started, queued = run(scenario())
        assert started == 1 and queued == QUEUED
        assert job.status == DONE and job.pid is not None
        assert job.result["cache_hit"] is False
        assert manager.stats.solves_started == 1
        assert manager.stats.cache["misses"] == 1


class TestRegistryMemory:
    """Finished jobs of one problem share one mapping dict, and the table
    holding the shared dicts is pruned with the registry."""

    def test_warm_hits_share_one_mapping(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            _prefill(manager, request())
            first = await _answer(manager, request())
            second = await _answer(manager, request())
            return first, second

        first, second = run(scenario())
        assert first.result["cache_hit"] and second.result["cache_hit"]
        assert first.result["mapping"] is second.result["mapping"]

    def test_cold_result_and_later_hit_share_one_mapping(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            cold = await _answer(manager, request())
            warm = await _answer(manager, request())
            return cold, warm

        cold, warm = run(scenario())
        assert not cold.result["cache_hit"] and warm.result["cache_hit"]
        assert warm.result["mapping"] is cold.result["mapping"]

    def test_shared_table_never_outgrows_the_registry(self, tmp_path):
        # Five problems that differ in a semantic field, so five keys.
        caps = [40 + offset for offset in range(5)]

        async def scenario():
            manager = JobManager(
                pool_size=1, cache_dir=str(tmp_path), max_jobs_tracked=3,
            )
            for cap in caps:
                _prefill(manager, request(max_ii=cap))
            sizes, keys, finish_order = [], set(), []
            for _round in range(2):
                for cap in caps:
                    job = await _answer(manager, request(max_ii=cap))
                    keys.add(job.cache_key)
                    finish_order.append(job.id)
                    sizes.append((len(manager._mappings), len(manager.jobs)))
            return manager, sizes, keys, finish_order

        manager, sizes, keys, finish_order = run(scenario())
        assert len(keys) == 5
        assert manager.stats.cache["hits"] == 10
        assert all(shared <= tracked <= 3 for shared, tracked in sizes)
        live = {(job.tenant, job.cache_key) for job in manager.jobs.values()}
        assert set(manager._mappings) == live
        # The oldest finished jobs went first: the last three remain.
        assert list(manager.jobs) == finish_order[-3:]


def _body(**config):
    fields = {"timeout": 60, "random_seed": 0}
    fields.update(config)
    return {"kernel": "srand", "arch": {"rows": 3, "cols": 3}, "config": fields}


async def _post(manager: JobManager, body: dict, header_tenant=None):
    return await _answer(manager, manager.parse(body, header_tenant))


class TestProblemTable:
    """A repeated problem is parsed and validated once; the per-request
    options (tenant, wait, timeout) are parsed every time."""

    def test_same_problem_under_a_second_tenant_misses_in_its_namespace(
        self, tmp_path
    ):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            first = await _post(manager, _body())
            warm = await _post(manager, _body())
            other = await _post(manager, {**_body(), "tenant": "team-b"})
            by_header = await _post(manager, _body(), header_tenant="team-b")
            return manager, first, warm, other, by_header

        manager, first, warm, other, by_header = run(scenario())
        assert len(manager._problems) == 1
        assert other.cache_key == first.cache_key
        assert warm.result["cache_hit"] and not other.result["cache_hit"]
        assert by_header.result["cache_hit"] and by_header.tenant == "team-b"
        assert manager.stats.solves_started == 2
        assert (manager.stats.cache["hits"], manager.stats.cache["misses"]) == (2, 2)
        assert list((tmp_path / "team-b").glob("*.json"))

    def test_semantic_config_change_is_a_new_key_and_a_new_solve(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            first = await _post(manager, _body())
            changed = await _post(manager, _body(run_register_allocation=False))
            return manager, first, changed

        manager, first, changed = run(scenario())
        assert changed.cache_key != first.cache_key
        assert not changed.result["cache_hit"]
        assert manager.stats.solves_started == 2
        assert len(manager._problems) == 2

    def test_timeout_and_wait_reuse_the_entry(self, tmp_path):
        manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
        first = manager.parse(_body())
        longer = manager.parse(_body(timeout=90))
        waiting = manager.parse({**_body(), "wait": 5})
        assert len(manager._problems) == 1
        assert longer.dfg is first.dfg and waiting.dfg is first.dfg
        assert longer.cache_key == waiting.cache_key == first.cache_key
        assert (first.config.timeout, longer.config.timeout) == (60, 90)
        assert longer.config == dataclasses.replace(first.config, timeout=90)
        assert (first.wait, waiting.wait) == (0.0, 5.0)
        # The options are still checked on every request.
        from repro.service.protocol import ProtocolError

        for body in (_body(timeout=0), {**_body(), "wait": -1},
                     {**_body(), "tenant": "../escape"}):
            with pytest.raises(ProtocolError):
                manager.parse(body)
        assert len(manager._problems) == 1

    def test_malformed_bodies_never_enter_the_table(self, tmp_path, monkeypatch):
        from repro.exceptions import MappingError
        from repro.service.protocol import ProtocolError

        manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
        for body in (_body(max_ii="many"), {**_body(), "kernel": "nope"},
                     {**_body(), "config": []}, ["not", "an", "object"]):
            for _attempt in range(2):
                with pytest.raises(ProtocolError):
                    manager.parse(body)

        def refute(dfg, cgra):
            raise MappingError("kernel cannot fit fabric at any II")

        monkeypatch.setattr(jobs_module, "check_kernel_fits", refute)
        for _attempt in range(2):
            with pytest.raises(MappingError):
                manager.parse(_body())
        assert len(manager._problems) == 0
        assert manager.stats.rejected == 2

    def test_table_stays_within_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "PROBLEM_TABLE_SIZE", 3)
        manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
        for cap in range(40, 46):
            manager.parse(_body(max_ii=cap))
            assert len(manager._problems) <= 3
        # Least recently used out: a reused entry outlives newer ones.
        kept = manager.parse(_body(max_ii=43))
        manager.parse(_body(max_ii=46))
        caps = [request.config.max_ii for request in manager._problems.values()]
        assert caps == [45, 43, 46]
        assert manager.parse(_body(max_ii=43)).dfg is kept.dfg

    def test_table_held_dfg_survives_a_solve_and_hits(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            held = manager.parse(_body()).dfg
            before = held.to_dict()
            cold = await _post(manager, _body())
            warm = [await _post(manager, _body()) for _ in range(3)]
            return manager, held, before, cold, warm

        manager, held, before, cold, warm = run(scenario())
        assert cold.pid is not None and not cold.result["cache_hit"]
        assert all(job.result["cache_hit"] for job in warm)
        [entry] = manager._problems.values()
        assert entry.dfg is held
        assert held.to_dict() == before

    def test_without_a_cache_every_request_is_solved(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            jobs = [await _post(manager, _body()) for _ in range(2)]
            return manager, jobs

        manager, jobs = run(scenario())
        assert all(job.status == DONE and job.pid for job in jobs)
        assert manager.stats.solves_started == 2
        assert manager.stats.cache["hits"] == manager.stats.cache["misses"] == 0
