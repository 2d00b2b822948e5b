"""Job lifecycle for the mapping service.

Every accepted ``POST /map`` becomes a :class:`Job`.  ``submit()`` first
looks its key up in the persistent cache (:meth:`MappingCache.lookup_key`)
on the event loop; a hit returns the job already finished, answered from
the cache entry with no task, thread, pool slot or process.  Only a miss
starts a task that waits for one of ``pool_size`` slots and runs its
search (:meth:`SatMapItMapper.solve`) in its *own worker process*:

* **Isolation / re-entrancy** — the mapper core is stateless, but a SAT
  solve is CPU-bound and can be asked to die at any moment; a process per
  solve gives the GIL-free parallelism and a kill target, with no state
  shared between requests.  A cache hit is a file read plus the cache's
  checks: milliseconds, nothing to kill, and every check (schema, solver
  version, key, ``ii``, ``Mapping.violations()``, deletion of corrupt
  entries) runs unchanged; it holds the GIL wherever it runs, so a thread
  would only add a GIL hand-off.  The answer carries the entry's mapping
  dict as stored, so no register allocation is recomputed.  Each request
  looks the cache up exactly once, so the ``/stats`` cache counters stay
  exact and ``solves_started`` counts worker processes.
* **Problem table** — a repeated problem is parsed and validated once:
  :meth:`JobManager.parse` keeps the last :data:`PROBLEM_TABLE_SIZE`
  validated problems (DFG, CGRA, config, cache key) under their canonical
  body text (:func:`repro.service.protocol.problem_text`).  Requests for one
  problem share its DFG read-only: a hit reads only its name, and a miss
  hands its worker a pickled copy.
* **Warm starts** — a worker is forked from a ``forkserver`` the manager
  starts when it is built, which has preloaded the mapper stack
  (:func:`repro.procs.forkserver_context`).  A miss pays a fork, not a
  fresh interpreter's imports; the event loop's threads never fork.
* **Cancellation** — a worker starts no children and leaves nothing
  half-written (cache writes are atomic renames), so SIGTERM just ends
  it.  The lifecycle is :mod:`repro.procs`, shared with the farm: a pipe
  per worker, a crash record on EOF, and the SIGTERM-grace-SIGKILL reap.
* **Dedup** — in-flight requests are indexed by ``(tenant, cache key)``
  using the persistent cache's content hash: two identical concurrent
  ``POST /map``\\ s share one Job and one solve.  Once a job finishes the
  index entry is dropped — later repeats are served by the persistent
  cache instead, in the server.  Finished jobs of one (tenant, cache key)
  share one mapping dict, dropped with the last of them from the registry,
  which drops its oldest finished jobs first.
* **Tenancy** — each tenant's cache lives under its own namespace
  directory (``MapperConfig.cache_namespace``); tenants share nothing on
  disk.
* **Budgets** — every request's config carries an explicit clamped
  timeout (see :mod:`repro.service.protocol`); on top of it the manager
  holds a hard deadline (timeout + grace) after which a wedged worker is
  reaped and the job fails, so no request can pin a pool slot forever.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import uuid
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Any

from repro import procs
from repro.cgra.capabilities import check_kernel_fits, effective_minimum_ii
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.exceptions import MappingError
from repro.sat.backend import BackendUnavailableError, validate_backend
from repro.search.cache import (
    MappingCache,
    cache_key,
    resolve_cache_dir,
)
from repro.service.protocol import (
    MapRequest,
    ServiceLimits,
    hit_payload,
    outcome_payload,
    parse_map_request,
    problem_text,
    reuse_problem,
)

#: Seconds between cancellation/deadline checks while a worker solves.
_WORKER_POLL = 0.1

#: Slack on top of a request's own timeout before the manager declares
#: the worker wedged and reaps it.
_BUDGET_GRACE = 30.0

#: Seconds a worker that answered gets to exit before it is reaped.
_EXIT_WAIT = 2.0

#: Validated problems the manager keeps parsed (least recently used out).
PROBLEM_TABLE_SIZE = 128


def _job_worker(conn, dfg, cgra, config: MapperConfig) -> None:
    """Run one mapping search (a cache miss) and ship a plain-data
    verdict back."""
    try:
        outcome = SatMapItMapper(config).solve(dfg, cgra)
        conn.send(("ok", outcome_payload(outcome)))
    except (MappingError, BackendUnavailableError) as exc:
        conn.send(("error", str(exc)))
    except BaseException as exc:  # pragma: no cover - crash containment
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)
_FINISHED = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class Job:
    """One mapping request's lifecycle, shared by every deduped caller."""

    id: str
    tenant: str
    cache_key: str
    dfg_name: str
    cgra_name: str
    status: str = QUEUED
    created_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    #: Structured failure detail (e.g. a ``worker_crashed`` record with
    #: the exit code and signal); ``None`` for ordinary error strings.
    failure: dict | None = None
    #: How many requests this job served (1 + dedup joiners).
    requests: int = 1
    #: Set from any thread to ask the solve loop to reap the worker.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Completion signal for ``wait=``-style synchronous callers.
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    pid: int | None = None

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal status."""
        return self.status in _FINISHED

    def to_payload(self) -> dict:
        """JSON-ready job view served by ``GET /jobs/<id>``."""
        end = self.finished_at or time.time()
        payload: dict[str, Any] = {
            "job": self.id,
            "status": self.status,
            "tenant": self.tenant,
            "cache_key": self.cache_key,
            "dfg": self.dfg_name,
            "cgra": self.cgra_name,
            "requests": self.requests,
            "created_at": self.created_at,
            "wall_s": round(end - self.created_at, 4),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        if self.failure is not None:
            payload["failure"] = self.failure
        return payload


@dataclass
class ServiceStats:
    """Service-level counters, aggregated across all jobs and tenants."""

    started_at: float = field(default_factory=time.time)
    requests: int = 0
    #: Requests answered by joining an identical in-flight job.
    dedup_joined: int = 0
    #: Worker processes started: one per cache miss (hits are answered in
    #: the server).
    solves_started: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    #: Jobs that failed because the worker process died without a verdict
    #: (nonzero exit or signal) — a subset of ``failed``.
    worker_crashes: int = 0
    #: Persistent-cache counters folded in from every server-side lookup
    #: and every finished solve.
    cache: dict = field(default_factory=lambda: {
        "hits": 0, "misses": 0, "writes": 0, "invalidated": 0,
        "corrupted": 0, "evicted": 0, "temp_files_swept": 0,
    })

    def fold_cache(self, stats: dict | None) -> None:
        """Fold one lookup's or solve's cache counters into the totals."""
        if not stats:
            return
        for name in self.cache:
            self.cache[name] += int(stats.get(name, 0))

    @property
    def hit_rate(self) -> float | None:
        """Cache hit ratio over all lookups, or ``None`` before any."""
        looked_up = self.cache["hits"] + self.cache["misses"]
        if not looked_up:
            return None
        return self.cache["hits"] / looked_up


def _solve_in_process(
    ctx, job: Job, dfg, cgra, config: MapperConfig, budget: float,
) -> tuple[str, Any]:
    """Run the worker process and babysit it (thread context).

    Returns ``("ok", payload)`` / ``("error", message)`` /
    ``("crashed", Crash)`` / ``("cancelled", None)``.  Guarantees the
    worker is dead on return, whatever happened.
    """
    worker = procs.start(ctx, _job_worker, dfg, cgra, config)
    job.pid = worker.process.pid
    deadline = time.monotonic() + budget
    try:
        while not job.cancel_event.is_set():
            if time.monotonic() > deadline:
                return (
                    "error",
                    f"worker exceeded the request budget "
                    f"(hard ceiling {budget:.0f}s) and was reaped",
                )
            if procs.wait([worker], _WORKER_POLL):
                reply = procs.receive(worker)
                if isinstance(reply, procs.Crash):
                    return ("crashed", reply)
                # The worker exits right after answering.
                worker.process.join(_EXIT_WAIT)
                return reply
        return ("cancelled", None)
    finally:
        procs.reap([worker.process])
        worker.conn.close()


class JobManager:
    """Bounded, deduplicating scheduler of mapping solves."""

    def __init__(
        self,
        pool_size: int = 2,
        cache_dir: str | None = None,
        cache_max_mb: float | None = None,
        limits: ServiceLimits | None = None,
        mp_context=None,
        max_jobs_tracked: int = 1000,
    ) -> None:
        self.pool_size = max(1, pool_size)
        self.cache_dir = cache_dir
        self.cache_max_mb = cache_max_mb
        self.limits = limits or ServiceLimits()
        # A forkserver by default: forking from the event loop's worker
        # threads is unreliable (and deprecated in newer CPythons), so
        # every miss forks from a separate single-threaded server instead,
        # which has the worker modules preloaded; starting it here does not
        # block, so its imports overlap the service's own start-up.  Tests
        # inject ``fork`` where they need to monkeypatch the worker.
        self._ctx = mp_context or procs.forkserver_context(__name__)
        self._semaphore = asyncio.Semaphore(self.pool_size)
        self.jobs: dict[str, Job] = {}
        #: Finished jobs of the registry in finish order: the pruning queue.
        self._finished: deque[Job] = deque()
        #: Registry jobs per (tenant, cache key) slot.
        self._slot_jobs: dict[tuple[str, str], int] = {}
        self._inflight: dict[tuple[str, str], Job] = {}
        #: Shared mapping dict per (tenant, cache key) of the finished jobs
        #: in the registry; pruned with it (see ``_finish_done``).
        self._mappings: dict[tuple[str, str], dict] = {}
        #: Validated problems by canonical body text (see :meth:`parse`).
        self._problems: OrderedDict[str, MapRequest] = OrderedDict()
        self._tenants: set[str] = set()
        self._max_jobs_tracked = max_jobs_tracked
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    def _specialise(self, request: MapRequest) -> MapperConfig:
        """Wire the service-owned resources into a request's config."""
        fields: dict[str, Any] = {}
        if self.cache_dir is not None:
            fields.update(
                cache_dir=self.cache_dir,
                cache_max_mb=self.cache_max_mb,
                cache_namespace=request.tenant,
            )
        return replace(request.config, **fields) if fields else request.config

    def _validated_key(self, request: MapRequest) -> str:
        """Refute ``request`` before any work, or return its cache key.

        Raises ``MappingError`` / ``BackendUnavailableError`` for requests
        that can be refuted up front (unmappable kernel, missing solver
        binary) — the HTTP layer turns those into a 400, mirroring the
        CLI's one-line error contract — and counts them as rejected.
        """
        try:
            validate_backend(request.config.backend)
            request.dfg.validate()
            check_kernel_fits(request.dfg, request.cgra)
            first_ii = max(effective_minimum_ii(request.dfg, request.cgra), 1)
            # The key reads only semantic config fields, none of which
            # the tenant or the service's cache settings touch.
            return cache_key(
                request.dfg, request.cgra, request.config, start_ii=first_ii
            )
        except Exception:
            self.stats.rejected += 1
            raise

    def parse(self, body: Any, header_tenant: str | None = None) -> MapRequest:
        """A ``POST /map`` body as a validated request with its cache key.

        A problem seen before is taken from the problem table, and only the
        per-request options (tenant, ``wait``, ``timeout``) are parsed; a
        new one is parsed and validated in full, and enters the table only
        if it passes.  Raises what :func:`parse_map_request` and
        :meth:`_validated_key` raise.
        """
        text = problem_text(body)
        problem = self._problems.get(text) if text is not None else None
        if problem is not None:
            self._problems.move_to_end(text)
            return reuse_problem(problem, body, self.limits, header_tenant)
        request = parse_map_request(body, self.limits, header_tenant)
        request.cache_key = self._validated_key(request)
        if text is not None:
            # A copy: the caller may still set its own request's ``wait``.
            self._problems[text] = replace(request)
            if len(self._problems) > PROBLEM_TABLE_SIZE:
                self._problems.popitem(last=False)
        return request

    def submit(self, request: MapRequest) -> tuple[Job, bool]:
        """Accept one request; returns ``(job, created)``.

        ``created`` is ``False`` when the request joined an identical
        in-flight job (same tenant, same cache key) instead of starting a
        new solve; a hit comes back finished.  A request without a cache
        key (one not made by :meth:`parse`) is validated first, raising as
        :meth:`parse` does.
        """
        key = request.cache_key
        if key is None:
            key = self._validated_key(request)
        self.stats.requests += 1
        slot = (request.tenant, key)
        existing = self._inflight.get(slot)
        if existing is not None and not existing.finished:
            existing.requests += 1
            self.stats.dedup_joined += 1
            return existing, False
        job = Job(
            id=uuid.uuid4().hex[:16],
            tenant=request.tenant,
            cache_key=key,
            dfg_name=request.dfg.name,
            cgra_name=request.cgra.name,
        )
        self.jobs[job.id] = job
        self._slot_jobs[slot] = self._slot_jobs.get(slot, 0) + 1
        self._inflight[slot] = job
        self._tenants.add(request.tenant)
        self._prune_finished()
        if self.cache_dir is None or not self._answer_hit(job, request):
            asyncio.get_running_loop().create_task(self._run(job, request))
        return job, True

    def _answer_hit(self, job: Job, request: MapRequest) -> bool:
        """Look the job's validated key up once in its tenant's namespace;
        on a hit, finish and close ``job`` here and return ``True``.  A miss
        goes to a worker, whose ``solve()`` does not look it up again."""
        start = time.perf_counter()
        try:
            cache = MappingCache(
                resolve_cache_dir(self.cache_dir, job.tenant),
                max_mb=self.cache_max_mb,
            )
            hit = cache.lookup_key(job.cache_key)
        except Exception as exc:  # an unusable cache root fails only the job
            self._fail(job, f"{type(exc).__name__}: {exc}")
        else:
            self.stats.fold_cache(dataclasses.asdict(cache.stats))
            if hit is None:
                return False
            elapsed = time.perf_counter() - start
            self._finish_done(job, hit_payload(hit, request, cache.stats, elapsed))
        self._close(job)
        return True

    async def _run(self, job: Job, request: MapRequest) -> None:
        """A miss: wait for a pool slot, then solve in a worker process."""
        acquired = False
        try:
            config = self._specialise(request)
            # Acquire a pool slot, staying responsive to cancellation of a
            # still-queued job.
            while not acquired and not job.cancel_event.is_set():
                try:
                    await asyncio.wait_for(self._semaphore.acquire(), timeout=0.2)
                    acquired = True
                except TimeoutError:
                    pass
            if job.cancel_event.is_set():
                job.status = CANCELLED
                self.stats.cancelled += 1
                return
            job.status = RUNNING
            self.stats.solves_started += 1
            budget = (config.timeout or self.limits.max_timeout) + _BUDGET_GRACE
            verdict, payload = await asyncio.to_thread(
                _solve_in_process,
                self._ctx, job, request.dfg, request.cgra, config, budget,
            )
            if verdict == "ok":
                self.stats.fold_cache(payload.get("cache"))
                self._finish_done(job, payload)
            elif verdict == "cancelled":
                job.status = CANCELLED
                self.stats.cancelled += 1
            elif verdict == "crashed":
                self.stats.worker_crashes += 1
                self._fail(job, f"mapping {payload}", payload.record())
            else:
                self._fail(job, payload)
        except Exception as exc:  # pragma: no cover - scheduler bug guard
            self._fail(job, f"{type(exc).__name__}: {exc}")
        finally:
            if acquired:
                self._semaphore.release()
            self._close(job)

    def _close(self, job: Job) -> None:
        """End a finished job's run: stamp it, queue it for pruning, free
        its dedup slot and wake its waiters."""
        job.finished_at = time.time()
        self._finished.append(job)
        if self._inflight.get((job.tenant, job.cache_key)) is job:
            del self._inflight[(job.tenant, job.cache_key)]
        job.done_event.set()

    def _fail(self, job: Job, error: str, failure: dict | None = None) -> None:
        """Mark ``job`` FAILED with ``error`` and its structured detail."""
        job.error = error
        job.failure = failure
        job.status = FAILED
        self.stats.failed += 1

    def _finish_done(self, job: Job, payload: dict) -> None:
        """Mark ``job`` DONE with ``payload``, sharing its mapping dict.

        A mapping dict embeds the whole DFG and CGRA (16–37 KB), and the
        registry keeps up to ``max_jobs_tracked`` finished jobs, mostly
        repeats of the same few problems.  Jobs with the same
        (tenant, cache key) and an equal mapping hold one read-only dict.
        """
        mapping = payload.get("mapping")
        if mapping is not None:
            slot = (job.tenant, job.cache_key)
            shared = self._mappings.get(slot)
            if shared == mapping:
                payload["mapping"] = shared
            else:
                self._mappings[slot] = mapping
        job.result = payload
        job.status = DONE
        self.stats.completed += 1

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        """Look up a job by id (``None`` for unknown ids)."""
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Job | None:
        """Ask a job to stop; the solve loop reaps its worker process."""
        job = self.jobs.get(job_id)
        if job is None or job.finished:
            return job
        job.cancel_event.set()
        return job

    async def shutdown(self) -> None:
        """Cancel everything in flight and wait for the reaps to finish."""
        pending = [job for job in self.jobs.values() if not job.finished]
        for job in pending:
            job.cancel_event.set()
        for job in pending:
            await job.done_event.wait()

    def _prune_finished(self) -> None:
        """Bound the job registry: drop the oldest finished jobs, and with
        the last registry job of a (tenant, cache key) its mapping dict."""
        while len(self.jobs) > self._max_jobs_tracked and self._finished:
            job = self._finished.popleft()
            del self.jobs[job.id]
            slot = (job.tenant, job.cache_key)
            self._slot_jobs[slot] -= 1
            if not self._slot_jobs[slot]:
                del self._slot_jobs[slot]
                self._mappings.pop(slot, None)

    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``GET /stats`` body: counters plus on-disk cache telemetry."""
        stats = self.stats
        statuses = Counter(job.status for job in self.jobs.values())
        payload: dict[str, Any] = {
            "service": {
                "uptime_s": round(time.time() - stats.started_at, 3),
                "pool_size": self.pool_size,
                "running": statuses[RUNNING],
                "queued": statuses[QUEUED],
                "jobs_tracked": len(self.jobs),
            },
            "requests": {
                "received": stats.requests,
                "dedup_joined": stats.dedup_joined,
                "rejected": stats.rejected,
                "solves_started": stats.solves_started,
                "completed": stats.completed,
                "failed": stats.failed,
                "worker_crashes": stats.worker_crashes,
                "cancelled": stats.cancelled,
            },
            "cache": {
                **stats.cache,
                "hit_rate": stats.hit_rate,
                "directory": None,
            },
        }
        if self.cache_dir is not None:
            # Live directory scan per tenant namespace; doubling as the
            # long-lived process's hygiene hook — stale atomic-write temps
            # are swept on every telemetry pass, not only on writes.
            tenants: dict[str, dict] = {}
            for tenant in sorted(self._tenants):
                handle = MappingCache(
                    resolve_cache_dir(self.cache_dir, tenant),
                    max_mb=self.cache_max_mb,
                )
                swept = handle.sweep_stale_temps()
                if swept:
                    self.stats.cache["temp_files_swept"] += swept
                tenants[tenant] = handle.directory_stats()
            payload["cache"]["directory"] = {
                "root": str(self.cache_dir),
                "tenants": tenants,
            }
            # The scan above may itself have swept temps; report the
            # post-sweep counter, not the snapshot taken before it.
            payload["cache"]["temp_files_swept"] = (
                self.stats.cache["temp_files_swept"]
            )
        return payload
