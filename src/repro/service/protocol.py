"""Wire formats of the mapping service.

A ``POST /map`` body is a JSON object with three parts::

    {
      "kernel": "gsm",                  // or "dfg": {...} or "source": "..."
      "arch":   {"preset": "mem_edge_4x4"},   // or rows/cols or "spec": {...}
      "config": {"timeout": 60, "seed_heuristic": true},
      "tenant": "team-a",               // optional; also X-Tenant header
      "wait":   5                       // optional: block up to N s for the result
    }

Parsing is strict: unknown config fields, wrong types, out-of-range
budgets and malformed tenants are rejected with :class:`ProtocolError`
before any mapping work starts — a service must fail requests, not
processes.  Budgets are *clamped*, not trusted: every request gets an
explicit wall-clock budget (``ServiceLimits.default_timeout`` when the
request names none) bounded by ``ServiceLimits.max_timeout``, so no
request can hold a worker slot forever.

A body's problem fields (:data:`PROBLEM_FIELDS`) fix everything parsing
derives from it except three per-request options: the tenant, ``wait``
and the config's ``timeout``.  :func:`problem_text` renders those fields
canonically, so the job manager can parse a repeated problem once and
:func:`reuse_problem` only parses the options of a later request.

The response side (:func:`outcome_payload`) renders a
:class:`~repro.core.mapper.MappingOutcome` as plain JSON — mapping
included on success, cache and seed telemetry always — and is
what the worker process ships back over its pipe, so everything in it
must be picklable and JSON-serializable plain data.  A cache hit answered
in the server is rendered by :func:`hit_payload` into the same payload.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from typing import Any

from repro.cgra.architecture import CGRA
from repro.cgra.presets import arch_preset_names, get_arch_preset
from repro.core.mapper import MapperConfig, MappingOutcome
from repro.dfg.graph import DFG
from repro.exceptions import ArchitectureError
from repro.sat.encodings import AMOEncoding
from repro.search.cache import CacheHit, CacheStats, resolve_cache_dir


class ProtocolError(ValueError):
    """A malformed or out-of-contract service request."""


#: Default tenant namespace for requests that name none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class ServiceLimits:
    """Server-side clamps applied to every request's budgets."""

    #: Wall-clock budget given to requests that do not set ``timeout``.
    default_timeout: float = 60.0
    #: Hard ceiling on any request's ``timeout``.
    max_timeout: float = 600.0
    #: Longest a ``POST /map`` may block waiting for its result before the
    #: caller is handed the job id to poll.
    max_wait: float = 300.0
    #: Largest accepted request body.
    max_body_bytes: int = 4 * 1024 * 1024


@dataclass
class MapRequest:
    """A validated mapping request, ready to hand to the job manager."""

    dfg: DFG
    cgra: CGRA
    config: MapperConfig
    tenant: str = DEFAULT_TENANT
    #: Seconds ``POST /map`` may block for a synchronous answer.
    wait: float = 0.0
    #: Cache key of the validated problem, when the job manager has
    #: already validated it; ``JobManager.submit`` derives it otherwise.
    cache_key: str | None = None


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

#: MapperConfig fields a request may set, with their expected JSON shape.
#: File-system knobs (cache directory, namespaces) and debug output are
#: service-owned and deliberately absent — a request must never choose
#: where the server writes.  Values are checked by ``MapperConfig``
#: itself (``seed_mappers`` against the heuristic-mapper registry).
_CONFIG_FIELDS: dict[str, str] = {
    "max_ii": "int",
    "timeout": "float?",
    "attempt_time_limit": "float?",
    "schedule_slack": "int",
    "max_extra_slack": "int",
    "slack_conflict_limit": "int?",
    "regalloc_retries": "int",
    "amo_encoding": "amo",
    "amo_probe_conflicts": "int?",
    "max_iteration_span": "int?",
    "enforce_output_register": "bool",
    "symmetry_breaking": "bool",
    "neighbour_register_file_access": "bool",
    "run_register_allocation": "bool",
    "solver_conflict_limit": "int?",
    "random_seed": "int?",
    "seed_heuristic": "bool",
    "seed_time_budget": "float",
    "seed_mappers": "strs",
}


def _coerce(name: str, value: Any, kind: str) -> Any:
    optional = kind.endswith("?")
    base = kind.rstrip("?")
    if value is None:
        if optional:
            return None
        raise ProtocolError(f"config field {name!r} must not be null")
    if base == "bool":
        if isinstance(value, bool):
            return value
    elif base == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif base == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif base == "str":
        if isinstance(value, str):
            return value
    elif base == "strs":
        if isinstance(value, (list, tuple)) and all(
            isinstance(item, str) for item in value
        ):
            return tuple(value)
    elif base == "amo":
        try:
            return AMOEncoding(value)
        except ValueError:
            raise ProtocolError(
                f"config field 'amo_encoding' must be one of "
                f"{[e.value for e in AMOEncoding]}, got {value!r}"
            ) from None
    raise ProtocolError(
        f"config field {name!r} has the wrong type: expected {base}, "
        f"got {type(value).__name__}"
    )


def _parse_dfg(payload: dict) -> DFG:
    sources = [key for key in ("kernel", "dfg", "source") if payload.get(key)]
    if len(sources) != 1:
        raise ProtocolError(
            "exactly one of 'kernel', 'dfg' or 'source' is required"
        )
    if "kernel" in sources:
        from repro.kernels import all_kernel_names, get_kernel

        name = payload["kernel"]
        if not isinstance(name, str) or name not in all_kernel_names():
            raise ProtocolError(
                f"unknown kernel {name!r}; available: {all_kernel_names()}"
            )
        # Round-trip through the serialized form: the kernel registry caches
        # DFG instances, and a shared mutable object must never cross
        # request boundaries in a re-entrant service.
        return DFG.from_dict(get_kernel(name).to_dict())
    if "dfg" in sources:
        spec = payload["dfg"]
        if not isinstance(spec, dict):
            raise ProtocolError("'dfg' must be a JSON object (DFG.to_dict form)")
        try:
            dfg = DFG.from_dict(spec)
            dfg.validate()
        except ProtocolError:
            raise
        except Exception as exc:
            raise ProtocolError(f"invalid DFG spec: {exc}") from exc
        return dfg
    from repro.frontend import compile_loop

    source = payload["source"]
    if not isinstance(source, str):
        raise ProtocolError("'source' must be a loop-kernel source string")
    try:
        return compile_loop(source, name="request")
    except Exception as exc:
        raise ProtocolError(f"cannot compile 'source': {exc}") from exc


def _parse_arch(payload: dict) -> CGRA:
    arch = payload.get("arch", {})
    if not isinstance(arch, dict):
        raise ProtocolError("'arch' must be a JSON object")
    try:
        if "spec" in arch:
            if not isinstance(arch["spec"], dict):
                raise ProtocolError("'arch.spec' must be a JSON object")
            return CGRA.from_spec(arch["spec"])
        if "preset" in arch:
            preset = arch["preset"]
            if preset not in arch_preset_names():
                raise ProtocolError(
                    f"unknown arch preset {preset!r}; "
                    f"available: {arch_preset_names()}"
                )
            return get_arch_preset(
                preset, registers_per_pe=int(arch.get("registers", 4))
            )
        return CGRA(
            rows=int(arch.get("rows", 4)),
            cols=int(arch.get("cols", 4)),
            registers_per_pe=int(arch.get("registers", 4)),
        )
    except ProtocolError:
        raise
    except (ArchitectureError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid architecture: {exc}") from exc


def _parse_tenant(payload: dict, header_tenant: str | None) -> str:
    tenant = payload.get("tenant", header_tenant) or DEFAULT_TENANT
    if not isinstance(tenant, str):
        raise ProtocolError("'tenant' must be a string")
    try:
        # The cache layer owns the namespace alphabet; reuse its validation
        # so a tenant accepted here can never escape the cache root later.
        resolve_cache_dir(".", tenant)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return tenant


def _parse_timeout(config_spec: dict, limits: ServiceLimits) -> float:
    timeout = _coerce("timeout", config_spec.get("timeout"), _CONFIG_FIELDS["timeout"])
    if timeout is None:
        timeout = limits.default_timeout
    if timeout <= 0:
        raise ProtocolError("'timeout' must be positive")
    return min(timeout, limits.max_timeout)


def _parse_wait(payload: dict, limits: ServiceLimits) -> float:
    wait = payload.get("wait", 0.0)
    if not isinstance(wait, (int, float)) or isinstance(wait, bool) or wait < 0:
        raise ProtocolError("'wait' must be a non-negative number of seconds")
    return min(float(wait), limits.max_wait)


#: Body fields that state the mapping problem, less the config's
#: ``timeout``: a request's budget, not part of its problem.
PROBLEM_FIELDS: tuple[str, ...] = ("kernel", "dfg", "source", "arch", "config")


def problem_text(payload: Any) -> str | None:
    """Canonical JSON of ``payload``'s problem fields, or ``None`` for a
    body too malformed to have them (parsing it reports why).

    Two bodies with the same text parse to the same DFG, CGRA and config
    up to the config's ``timeout``.
    """
    if not isinstance(payload, dict):
        return None
    config = payload.get("config", {})
    if not isinstance(config, dict):
        return None
    problem = {name: payload.get(name) for name in PROBLEM_FIELDS}
    problem["config"] = {
        name: value for name, value in config.items() if name != "timeout"
    }
    return json.dumps(problem, sort_keys=True, separators=(",", ":"))


def reuse_problem(
    problem: MapRequest,
    payload: dict,
    limits: ServiceLimits,
    header_tenant: str | None = None,
) -> MapRequest:
    """A request for the already parsed ``problem`` of ``payload``.

    Only the per-request options are parsed: the tenant, ``wait`` and the
    config's ``timeout``.  The DFG and CGRA are ``problem``'s own, shared
    read-only with every other request for it.
    """
    timeout = _parse_timeout(payload.get("config", {}), limits)
    config = problem.config
    if config.timeout != timeout:
        config = replace(config, timeout=timeout)
    return MapRequest(
        dfg=problem.dfg,
        cgra=problem.cgra,
        config=config,
        tenant=_parse_tenant(payload, header_tenant),
        wait=_parse_wait(payload, limits),
        cache_key=problem.cache_key,
    )


def parse_map_request(
    payload: Any,
    limits: ServiceLimits | None = None,
    header_tenant: str | None = None,
) -> MapRequest:
    """Validate one ``POST /map`` body into a :class:`MapRequest`.

    Raises :class:`ProtocolError` on any malformed part; clamps the
    request's time budget to the service limits so every
    accepted request carries explicit, bounded budgets.
    """
    limits = limits or ServiceLimits()
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    config_spec = payload.get("config", {})
    if not isinstance(config_spec, dict):
        raise ProtocolError("'config' must be a JSON object")
    fields: dict[str, Any] = {}
    for name, value in config_spec.items():
        kind = _CONFIG_FIELDS.get(name)
        if kind is None:
            raise ProtocolError(
                f"unknown config field {name!r}; "
                f"allowed: {sorted(_CONFIG_FIELDS)}"
            )
        fields[name] = _coerce(name, value, kind)
    fields["timeout"] = _parse_timeout(config_spec, limits)
    # The service owns all output: workers must stay silent.
    fields["verbose"] = False

    wait = _parse_wait(payload, limits)
    try:
        config = MapperConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from exc
    return MapRequest(
        dfg=_parse_dfg(payload),
        cgra=_parse_arch(payload),
        config=config,
        tenant=_parse_tenant(payload, header_tenant),
        wait=wait,
    )


# ---------------------------------------------------------------------------
# Response rendering
# ---------------------------------------------------------------------------


def outcome_payload(outcome: MappingOutcome) -> dict:
    """A :class:`MappingOutcome` as a plain-data JSON payload.

    The worker process ships exactly this dict back over its pipe, so it
    must stay picklable plain data (no Mapping/DFG objects).
    """
    payload: dict[str, Any] = {
        "success": outcome.success,
        "status": outcome.final_status,
        "dfg": outcome.dfg_name,
        "cgra": outcome.cgra_name,
        "ii": outcome.ii,
        "minimum_ii": outcome.minimum_ii,
        "attempts": len(outcome.attempts),
        "total_time_s": round(outcome.total_time, 4),
        "timed_out": outcome.timed_out,
        "cache_hit": outcome.cache_hit,
        "cache_key": outcome.cache_key,
        "mapping": outcome.mapping.to_dict() if outcome.mapping else None,
    }
    if outcome.cache_stats is not None:
        payload["cache"] = dataclasses.asdict(outcome.cache_stats)
    if outcome.seed_ii is not None or outcome.seed_time:
        payload["seed"] = {
            "ii": outcome.seed_ii,
            "mapper": outcome.seed_mapper,
            "time_s": round(outcome.seed_time, 4),
            "used": outcome.seed_used,
        }
    return payload


def hit_payload(
    hit: CacheHit,
    request: MapRequest,
    cache_stats: CacheStats,
    total_time: float,
) -> dict:
    """The :func:`outcome_payload` of the mapper's cache hit on ``request``.

    The mapping is the entry's own dict, which :meth:`MappingCache.lookup_key`
    has checked (``Mapping.violations()`` included) and which holds the
    register assignment the search stored: the payload carries no
    register-allocation object, so nothing is recomputed or re-serialised.
    """
    outcome = MappingOutcome(
        success=True,
        dfg_name=request.dfg.name,
        cgra_name=request.cgra.name,
        ii=hit.ii,
        minimum_ii=hit.minimum_ii,
        total_time=total_time,
        cache_hit=True,
        cache_key=hit.key,
        cache_stats=cache_stats,
    )
    payload = outcome_payload(outcome)
    payload["mapping"] = hit.entry["mapping"]
    return payload
