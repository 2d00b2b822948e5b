"""Mapping-as-a-service: an async HTTP front end over the mapper core.

The pieces of a service already existed — a content-addressed persistent
mapping cache, a solver-backend registry, JSON-serializable
DFG/CGRA/Mapping specs — and this package puts an HTTP surface on them:

* :mod:`repro.service.protocol` — request/response wire formats: a JSON
  ``POST /map`` body into a validated (DFG, CGRA, MapperConfig) triple,
  and a :class:`~repro.core.mapper.MappingOutcome` into a JSON payload.
* :mod:`repro.service.jobs` — the job manager: a bounded pool of worker
  *processes* (one per mapping solve, so requests are isolated and
  cancellable), in-flight request dedup keyed by the persistent cache's
  content hash, per-tenant cache namespaces, and service-level telemetry.
* :mod:`repro.service.app` — a stdlib-only asyncio HTTP server exposing
  ``POST /map``, ``GET /jobs/{id}``, ``POST /jobs/{id}/cancel``,
  ``GET /stats`` and ``GET /healthz``; ``repro serve`` on the CLI.

No third-party web framework is required (or used): the HTTP layer is
``asyncio.start_server`` plus a deliberately small HTTP/1.1 reader that
supports exactly what the JSON API needs.
"""

from repro.service.app import ServiceApp, run_service, start_service
from repro.service.jobs import Job, JobManager, ServiceStats
from repro.service.protocol import (
    MapRequest,
    ProtocolError,
    ServiceLimits,
    outcome_payload,
    parse_map_request,
)

__all__ = [
    "Job",
    "JobManager",
    "MapRequest",
    "ProtocolError",
    "ServiceApp",
    "ServiceLimits",
    "ServiceStats",
    "outcome_payload",
    "parse_map_request",
    "run_service",
    "start_service",
]
