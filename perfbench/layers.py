"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it measures each layer by wrapping the
layer's public functions (as their callers look them up) with a span
recorder for the duration of a traced run, then restores the originals.
A span records its layer, start, end and parent; a layer's *self* time is
its spans' durations minus the part covered by child spans, so the self
times of all layers plus the benchmark's own root span add up to the traced
wall exactly.

A wrapped name that does not exist on the commit under test (a later change
may delete or move it) is reported as an absent layer, not an error.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


def _count_sat(stats: dict, result) -> None:
    status = getattr(result, "status", "")
    stats[{"SAT": "sat", "UNSAT": "unsat"}.get(status, "unknown")] += 1
    solver_stats = getattr(result, "stats", None)
    stats["conflicts"] += getattr(solver_stats, "conflicts", 0)
    stats["propagations"] += getattr(solver_stats, "propagations", 0)


def _count_encoder(stats: dict, encoding) -> None:
    encoding_stats = getattr(encoding, "stats", None)
    stats["clauses"] += getattr(encoding_stats, "num_clauses", 0)
    stats["variables"] += getattr(encoding_stats, "num_variables", 0)


def _count_regalloc(stats: dict, allocation) -> None:
    if not getattr(allocation, "success", False):
        stats["failed"] += 1


def _count_lookup(stats: dict, hit) -> None:
    stats["lookups"] += 1
    if hit is not None:
        stats["hits"] += 1


def _count_store(stats: dict, path) -> None:
    if path is not None:
        stats["stores"] += 1


#: (layer, module, attribute path, counter).  Names are the ones the caller
#: resolves at call time: the mapper imports ``allocate_registers`` and the
#: MII helpers into its own namespace, so those are patched there.
WRAPPED = (
    ("search", "repro.core.mapper", "SatMapItMapper.map", None),
    ("sat", "repro.sat.backend", "CDCLBackend.solve", _count_sat),
    ("encoder", "repro.core.encoder", "MappingEncoder.encode", _count_encoder),
    ("regalloc", "repro.core.mapper", "allocate_registers", _count_regalloc),
    ("mobility", "repro.core.mobility", "MobilitySchedule.build", None),
    ("mobility", "repro.core.mobility", "KernelMobilitySchedule.build", None),
    ("capabilities", "repro.core.mapper", "effective_minimum_ii", None),
    ("capabilities", "repro.core.mapper", "check_kernel_fits", None),
    ("mapping", "repro.core.encoder", "MappingEncoding.decode", None),
    ("mapping", "repro.core.mapping", "Mapping.violations", None),
    ("cache.lookup", "repro.search.cache", "MappingCache.key", None),
    ("cache.lookup", "repro.search.cache", "MappingCache.lookup_key", _count_lookup),
    ("cache.store", "repro.search.cache", "MappingCache.store", _count_store),
    ("frontend", "repro.frontend", "compile_loop", None),
    ("simulator", "repro.simulator.machine", "CGRASimulator.run", None),
)

#: Name of the span around the whole traced work; its self time is the
#: benchmark's own loop and bookkeeping.
ROOT_SPAN = "bench"


class Recorder:
    """Nested span recorder with per-layer aggregates (one stack per thread)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: Finished spans: (layer, start_ns, end_ns, parent span index or -1).
        self.spans: list[tuple[str, int, int, int]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((layer, 0, 0, stack[-1][3] if stack else -1))
        frame = [layer, time.perf_counter_ns(), 0, index]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> int:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        layer, start, child_ns, index = frame
        duration = end - start
        with self._lock:
            self.self_ns[layer] += duration - child_ns
            self.calls[layer] += 1
            self.spans[index] = (layer, start, end, self.spans[index][3])
        if stack:
            stack[-1][2] += duration
        return duration

    def count(self, layer: str, counter, result) -> None:
        with self._lock:
            counter(self.counters[layer], result)

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    namespace = vars(owner)
    if name not in namespace:
        return None
    return owner, name, namespace[name]


def _wrap(recorder: Recorder, layer: str, function, counter):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        frame = recorder.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if counter is not None:
            recorder.count(layer, counter, result)
        return result

    return traced


class Tracing:
    """Context manager installing the layer wrappers around a traced block."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracing":
        for layer, module_name, path, counter in WRAPPED:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{layer}:{module_name}.{path}")
                continue
            owner, name, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(
                    _wrap(self.recorder, layer, raw.__func__, counter)
                )
            else:
                replacement = _wrap(self.recorder, layer, raw, counter)
            setattr(owner, name, replacement)
            self._restore.append((owner, name, raw))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The span-derived per-layer metrics (names as in ``BENCHMARK.json``)."""
    counters = recorder.counters
    sat, encoder = counters["sat"], counters["encoder"]
    regalloc = counters["regalloc"]
    lookups, stores = counters["cache.lookup"], counters["cache.store"]
    regalloc_calls = recorder.calls.get("regalloc", 0)
    metrics = {
        "sat.calls": recorder.calls.get("sat", 0),
        "sat.self_s": recorder.self_s("sat"),
        "sat.sat": sat["sat"],
        "sat.unsat": sat["unsat"],
        "sat.unknown": sat["unknown"],
        "sat.conflicts": sat["conflicts"],
        "sat.propagations": sat["propagations"],
        "encoder.calls": recorder.calls.get("encoder", 0),
        "encoder.self_s": recorder.self_s("encoder"),
        "encoder.clauses": encoder["clauses"],
        "encoder.variables": encoder["variables"],
        "regalloc.calls": regalloc_calls,
        "regalloc.failed": regalloc["failed"],
        "regalloc.self_s": recorder.self_s("regalloc"),
        "regalloc.useful_ratio": (
            (regalloc_calls - regalloc["failed"]) / regalloc_calls
            if regalloc_calls else 0.0
        ),
        "search.self_s": recorder.self_s("search"),
        "cache.lookups": lookups["lookups"],
        "cache.hits": lookups["hits"],
        "cache.misses": lookups["lookups"] - lookups["hits"],
        "cache.stores": stores["stores"],
        "cache.lookup_s": recorder.self_s("cache.lookup"),
        "cache.store_s": recorder.self_s("cache.store"),
    }
    for layer in ("mobility", "capabilities", "mapping", "frontend", "simulator"):
        metrics[f"{layer}.self_s"] = recorder.self_s(layer)
    return metrics
