"""End-to-end HTTP tests: routing, II parity with the direct mapper,
and the concurrent-duplicate-POST dedup guarantee.

The server runs in-process (``asyncio.start_server`` on port 0); clients
are plain ``urllib`` calls pushed onto worker threads so they exercise
the real socket path.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
import urllib.error
import urllib.request

import pytest

import repro.service.jobs as jobs_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.service import JobManager, start_service


def run(coro):
    return asyncio.run(coro)


async def serve(manager):
    server = await start_service(manager, port=0)
    port = server.sockets[0].getsockname()[1]
    return server, f"http://127.0.0.1:{port}"


def _request(url, data=None, method=None, headers=None):
    req = urllib.request.Request(
        url, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_map(base, body, headers=None):
    return _request(
        base + "/map", data=json.dumps(body).encode(), headers=headers
    )


async def aget(base, path):
    return await asyncio.to_thread(_request, base + path)


SRAND_BODY = {
    "kernel": "srand",
    "arch": {"rows": 3, "cols": 3},
    "config": {"timeout": 60, "random_seed": 0},
    "wait": 60,
}


class TestRoutes:
    def test_routing_and_errors(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            server, base = await serve(manager)
            try:
                results = {}
                results["health"] = await aget(base, "/healthz")
                results["stats"] = await aget(base, "/stats")
                results["missing"] = await aget(base, "/teapot")
                results["bad_method"] = await asyncio.to_thread(
                    _request, base + "/map"
                )  # GET /map
                results["unknown_job"] = await aget(base, "/jobs/deadbeef")
                results["bad_json"] = await asyncio.to_thread(
                    _request, base + "/map", b"{nope"
                )
                results["bad_kernel"] = await asyncio.to_thread(
                    post_map, base, {"kernel": "quantum"}
                )
                results["bad_config"] = await asyncio.to_thread(
                    post_map,
                    base,
                    {"kernel": "srand", "config": {"cache_dir": "/etc"}},
                )
                results["removed_field"] = await asyncio.to_thread(
                    post_map,
                    base,
                    {"kernel": "srand", "config": {"preprocess": True}},
                )
                results["removed_strategy"] = await asyncio.to_thread(
                    post_map,
                    base,
                    {"kernel": "srand", "config": {"search": "ladder"}},
                )
                results["removed_backend"] = await asyncio.to_thread(
                    post_map,
                    base,
                    {"kernel": "srand", "config": {"backend": "kissat"}},
                )
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()
            return results

        results = run(scenario())
        assert results["health"] == (200, {"status": "ok"})
        assert results["stats"][0] == 200
        assert results["missing"][0] == 404
        assert results["bad_method"][0] == 405
        assert results["unknown_job"][0] == 404
        assert results["bad_json"][0] == 400
        assert results["bad_kernel"][0] == 400
        assert "unknown kernel" in results["bad_kernel"][1]["error"]
        # Same one-line contract as the CLI error path.
        assert results["bad_config"][0] == 400
        assert "unknown config field" in results["bad_config"][1]["error"]
        assert results["removed_field"][0] == 400
        assert "unknown config field" in results["removed_field"][1]["error"]
        assert results["removed_strategy"][0] == 400
        assert "unknown config field" in results["removed_strategy"][1]["error"]
        assert results["removed_backend"][0] == 400
        assert "unknown config field" in results["removed_backend"][1]["error"]

    def test_oversized_body_rejected(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            server, base = await serve(manager)
            try:
                blob = b"x" * (manager.limits.max_body_bytes + 1)
                return await asyncio.to_thread(_request, base + "/map", blob)
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()

        status, payload = run(scenario())
        assert status == 413


class TestMapEndpoint:
    def test_serve_ii_matches_direct_mapper(self, tmp_path):
        """Acceptance: the service returns the same II as ``repro map``."""
        direct = SatMapItMapper(
            MapperConfig(timeout=60, random_seed=0, verbose=False)
        ).map(get_kernel("srand"), CGRA.square(3))

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            server, base = await serve(manager)
            try:
                return await asyncio.to_thread(post_map, base, SRAND_BODY)
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()

        status, payload = run(scenario())
        assert status == 200
        assert payload["status"] == "done"
        assert payload["result"]["ii"] == direct.ii == 3
        assert payload["result"]["mapping"] is not None
        assert payload["deduplicated"] is False

    def test_async_submit_then_poll(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            server, base = await serve(manager)
            try:
                body = dict(SRAND_BODY, wait=0)
                status, payload = await asyncio.to_thread(
                    post_map, base, body
                )
                assert status == 202, payload
                job_id = payload["job"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    status, payload = await aget(base, f"/jobs/{job_id}")
                    if payload["status"] in ("done", "failed", "cancelled"):
                        break
                    await asyncio.sleep(0.2)
                return status, payload
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()

        status, payload = run(scenario())
        assert status == 200
        assert payload["status"] == "done"
        assert payload["result"]["ii"] == 3

    def test_warm_hit_answers_without_wait(self, tmp_path):
        """A cache hit needs no ``wait`` and no poll: the first response
        carries the finished job."""

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            server, base = await serve(manager)
            try:
                cold = await asyncio.to_thread(post_map, base, SRAND_BODY)
                warm = await asyncio.to_thread(
                    post_map, base, dict(SRAND_BODY, wait=0)
                )
                stats = await aget(base, "/stats")
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()
            return cold, warm, stats[1]

        (_, cold), (status, warm), stats = run(scenario())
        assert status == 200 and warm["status"] == "done"
        assert warm["result"]["cache_hit"] is True
        assert warm["result"]["mapping"] == cold["result"]["mapping"]
        assert stats["requests"]["solves_started"] == 1

    def test_tenant_header_routes_cache_namespace(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            server, base = await serve(manager)
            try:
                return await asyncio.to_thread(
                    post_map, base, SRAND_BODY, {"X-Tenant": "team-a"}
                )
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()

        status, payload = run(scenario())
        assert status == 200 and payload["tenant"] == "team-a"
        assert list((tmp_path / "team-a").glob("*.json"))


def _slow_ok_worker(conn, dfg, cgra, config):
    time.sleep(1.5)
    conn.send(("ok", {"success": True, "ii": 99, "cache": None}))
    conn.close()


class TestConcurrentDedup:
    def test_concurrent_duplicate_posts_share_one_solve(self, monkeypatch):
        """Acceptance: two identical POST /map requests in flight at the
        same time produce one solve; the stats prove it."""
        monkeypatch.setattr(jobs_module, "_job_worker", _slow_ok_worker)

        async def scenario():
            manager = JobManager(
                pool_size=2,
                mp_context=multiprocessing.get_context("fork"),
            )
            server, base = await serve(manager)
            try:
                first, second = await asyncio.gather(
                    asyncio.to_thread(post_map, base, SRAND_BODY),
                    asyncio.to_thread(post_map, base, SRAND_BODY),
                )
                stats = await aget(base, "/stats")
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()
            return first, second, stats[1]

        (s1, p1), (s2, p2), stats = run(scenario())
        assert s1 == 200 and s2 == 200
        assert p1["job"] == p2["job"]
        assert {p1["deduplicated"], p2["deduplicated"]} == {True, False}
        assert p1["requests"] == 2
        assert stats["requests"]["received"] == 2
        assert stats["requests"]["dedup_joined"] == 1
        assert stats["requests"]["solves_started"] == 1


def _sleepy_worker(conn, dfg, cgra, config):
    time.sleep(600)


class TestCancelEndpoint:
    def test_cancel_route_reaps_worker(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = JobManager(
                pool_size=1,
                mp_context=multiprocessing.get_context("fork"),
            )
            server, base = await serve(manager)
            try:
                status, payload = await asyncio.to_thread(
                    post_map, base, dict(SRAND_BODY, wait=0)
                )
                assert status == 202
                job_id = payload["job"]
                job = manager.get(job_id)
                while job.pid is None:
                    await asyncio.sleep(0.05)
                status, payload = await asyncio.to_thread(
                    _request, base + f"/jobs/{job_id}/cancel", b"", "POST"
                )
                assert status == 200 and payload["cancel_requested"]
                await job.done_event.wait()
                status, payload = await aget(base, f"/jobs/{job_id}")
            finally:
                server.close()
                await server.wait_closed()
                await manager.shutdown()
            return status, payload

        status, payload = run(scenario())
        assert status == 200
        assert payload["status"] == "cancelled"
        assert multiprocessing.active_children() == []
