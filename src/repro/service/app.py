"""Stdlib-only asyncio HTTP front end for the mapping service.

``asyncio.start_server`` plus a deliberately small HTTP/1.1 reader — just
enough for a JSON API (request line, headers, Content-Length body,
``Connection: close`` responses).  No third-party framework; the
container bakes in only the standard library, and the API surface is
five routes:

=======  ========================  ===========================================
Method   Path                      Meaning
=======  ========================  ===========================================
POST     ``/map``                  submit a mapping problem: a cache hit, or
                                   an answer within ``wait`` seconds, is a
                                   200; otherwise a job handle (202)
GET      ``/jobs/{id}``            poll a job (result embedded once done)
POST     ``/jobs/{id}/cancel``     cancel a job (``DELETE /jobs/{id}`` works
                                   too); the worker process is reaped
GET      ``/stats``                service / cache telemetry
GET      ``/healthz``              liveness probe
=======  ========================  ===========================================
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import MappingError
from repro.sat.backend import BackendUnavailableError
from repro.service.jobs import Job, JobManager
from repro.service.protocol import ProtocolError

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServiceApp:
    """Routes HTTP requests onto one :class:`JobManager`, under its limits."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self.limits = manager.limits

    # ------------------------------------------------------------------
    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one request, one JSON response."""
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:  # pragma: no cover - handler bug guard
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}
        method, target, _version = parts
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = dict(parse_qsl(split.query))

        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        body: Any = None
        length = int(headers.get("content-length", 0) or 0)
        if length > self.limits.max_body_bytes:
            # Drain and discard (never buffering more than a chunk) so the
            # client finishes its send and reads the 413 instead of hitting
            # a connection reset mid-write.
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            return 413, {
                "error": f"body exceeds {self.limits.max_body_bytes} bytes"
            }
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}

        return await self._route(method, path, query, headers, body)

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: dict, headers: dict, body: Any
    ) -> tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}
        if path == "/stats" and method == "GET":
            return 200, self.manager.stats_payload()
        if path == "/map":
            if method != "POST":
                return 405, {"error": "POST /map"}
            return await self._post_map(query, headers, body)
        if path.startswith("/jobs/"):
            tail = path[len("/jobs/"):]
            if tail.endswith("/cancel") and method == "POST":
                return self._cancel(tail[: -len("/cancel")])
            if method == "DELETE":
                return self._cancel(tail)
            if method == "GET":
                job = self.manager.get(tail)
                if job is None:
                    return 404, {"error": f"unknown job {tail!r}"}
                return 200, job.to_payload()
            return 405, {"error": "GET / DELETE /jobs/{id}, POST .../cancel"}
        return 404, {"error": f"no route for {method} {path}"}

    async def _post_map(
        self, query: dict, headers: dict, body: Any
    ) -> tuple[int, dict]:
        try:
            request = self.manager.parse(
                body, header_tenant=headers.get("x-tenant")
            )
            if "wait" in query:
                request.wait = min(
                    max(0.0, float(query["wait"])), self.limits.max_wait
                )
            job, created = self.manager.submit(request)
        except (ProtocolError, ValueError) as exc:
            return 400, {"error": str(exc)}
        except (MappingError, BackendUnavailableError) as exc:
            # Same one-line contract as the CLI: an unmappable kernel or a
            # missing solver binary (install hint included) fails the
            # *request*, never the service.
            return 400, {"error": str(exc)}
        if request.wait > 0 and not job.finished:
            try:
                await asyncio.wait_for(
                    job.done_event.wait(), timeout=request.wait
                )
            except TimeoutError:
                pass
        payload = job.to_payload()
        payload["deduplicated"] = not created
        return (200 if job.finished else 202), payload

    def _cancel(self, job_id: str) -> tuple[int, dict]:
        job: Job | None = self.manager.cancel(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        payload = job.to_payload()
        payload["cancel_requested"] = True
        return 200, payload


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


async def start_service(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8157,
) -> asyncio.Server:
    """Bind and return the asyncio server (``port=0`` picks a free port)."""
    app = ServiceApp(manager)
    return await asyncio.start_server(app.handle_client, host=host, port=port)


def run_service(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8157,
) -> int:
    """Blocking entry point used by ``repro serve``.

    Serves until interrupted; on the way out every in-flight job is
    cancelled through the reap discipline, so a Ctrl-C'd service leaves
    no orphaned solver processes behind.
    """

    async def _main() -> None:
        server = await start_service(manager, host=host, port=port)
        addr = server.sockets[0].getsockname()
        print(
            f"satmapit service listening on http://{addr[0]}:{addr[1]} "
            f"(pool={manager.pool_size}, cache={manager.cache_dir or 'off'})",
            flush=True,
        )
        try:
            async with server:
                await server.serve_forever()
        finally:
            await manager.shutdown()

    # A shell starts background jobs with SIGINT ignored, and Python keeps
    # an inherited SIG_IGN: without this, such a service never sees a
    # KeyboardInterrupt and SIGINT cannot stop it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("satmapit service: shut down", flush=True)
    return 0
