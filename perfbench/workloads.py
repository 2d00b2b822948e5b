"""The benchmark's four workloads: inputs, set-up, timed loop and oracle.

Every workload drives the public API from outside, from loop source in to a
validated mapping out.  The workload seed only orders and draws the inputs;
the program itself always runs with ``random_seed=0`` and default
``MapperConfig`` fields apart from ``timeout`` and ``cache_dir``.

Why each workload exists:

* ``refute-4x4`` — four kernels whose cost is UNSAT refutations below the
  answer plus register-allocation rejections (the ``repro map`` default
  config, regalloc on).  Solver changes show here.
* ``breadth-small`` — seventeen easy (kernel, fabric) pairs, each pass in a
  fresh cache directory, so every mapping is a cache miss plus a store.
  Fixed per-mapping costs (frontend, MII, mobility, encode, decode,
  simulator, cache write) show here and vanish on ``refute-4x4``.
* ``serve-warm`` — a ``repro serve --pool 2`` subprocess whose cache is
  filled in set-up; two closed-loop clients POST loop source for eight warm
  problems.  Worker spawn, IPC and HTTP are what is measured; solver
  changes should show no effect.  This is the cache read side.
* ``sweep-farm`` — repeated ``run_sweep(jobs=2)`` with SAT-MapIt and RAMP;
  the only workload that covers the farm and the baselines.

Timed runs repeat *whole passes* over the workload's problem list until the
time is up, so every run measures the same mix and percentiles taken by
nearest rank land on the same problem from run to run.  The oracle
(``finish``) runs after the timed or traced span, never inside it.
"""

from __future__ import annotations

import bisect
import contextlib
import http.client
import json
import os
import random
import re
import resource
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: ``repro map``'s default wall budget, used for every mapping request.
MAP_TIMEOUT = 120.0
#: II charged to a problem that never produced a validated mapping (the
#: mapper's II cap), so a failure can never lower ``ii_sum``.
FAILED_II = 50
#: Seconds the calibration loop takes at the reference speed: its median
#: over 60 runs on an idle 2-vCPU x86 container at 2.1 GHz, CPython 3.11.
CALIBRATION_S = 0.015


def _calibration_loop(n: int = 60000) -> int:
    table: dict[int, int] = {}
    values = list(range(256))
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        acc += values[i & 255] ^ key
        if acc & 1:
            values[i & 255] = acc & 0xFFFF
    return acc


#: Seconds between the samples of a :class:`Sampler`.
SAMPLE_INTERVAL = 0.05


class Sampler:
    """Host speed sampled on the program's own thread while spans are timed.

    The host's speed drifts by tens of percent within seconds when other
    tenants load it, and a fixed pure-Python loop slows down with the
    mapper.  A loop timed before and after a multi-second mapping cannot
    follow the swings inside it, and one timed on the other vCPU barely
    follows this one.  While a sampler is open, a SIGALRM every
    ``SAMPLE_INTERVAL`` runs a short calibration loop on the main thread,
    between the program's bytecodes.  :meth:`reference_seconds` takes the
    samples' own time out of a span and divides the rest by the mean
    slowdown of the samples in and around it, so the result is seconds at
    the reference speed.  Only workloads that map in this process use it.
    """

    #: Calibration-loop iterations per sample (about 1 ms).
    iterations = 4000
    #: Samples this close to either end of a span also count toward its
    #: slowdown, so that a span shorter than the interval still has some.
    window = 0.1

    def __enter__(self) -> "Sampler":
        self.samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _calibration_loop(self.iterations)
        self.samples.append((start, time.perf_counter()))

    def reference_seconds(self, start: float, end: float) -> float:
        """The span ``[start, end]`` in seconds at the reference speed."""
        starts = [sample_start for sample_start, _ in self.samples]
        first = bisect.bisect_left(starts, start - self.window)
        last = bisect.bisect_right(starts, end + self.window)
        near = self.samples[first:last] or [
            self.samples[min(first, len(self.samples) - 1)]
        ]
        reference = CALIBRATION_S * self.iterations / 60000
        slowdown = sum(b - a for a, b in near) / (len(near) * reference)
        # A handler runs between bytecodes, so a sample lies wholly inside
        # the span or wholly outside it.
        own = sum(b - a for a, b in near if a >= start and b <= end)
        return (end - start - own) / slowdown


class Checkpoints(Sampler):
    """Host speed measured between operations that run in child processes.

    A sampler on this thread does not see the farm's workers and would take
    a core from them, so the whole calibration loop (about 15 ms) runs
    before the first operation and after each one, while nothing else of
    the benchmark runs.  A span is divided by the mean slowdown of the
    checkpoints within two seconds of it, which evens out the noise of
    single checkpoints while following the host's drift between runs.
    """

    iterations = 60000
    window = 2.0

    def __enter__(self) -> "Checkpoints":
        self.samples = []
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def mark(self) -> None:
        self._sample()


@dataclass
class Tally:
    """What one batch of operations produced."""

    #: Operation latencies, at the reference speed where a :class:`Sampler`
    #: ran, else wall time.
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    #: Slowdown factors of the calibrated latencies.
    slowdowns: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    #: problem -> validated II (the first one seen; later ones must match).
    iis: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    passes: int = 0
    #: Operations per second of each whole pass (a client round on
    #: ``serve-warm``); their median makes the throughput figure robust to
    #: a pass slowed by a burst of outside load.
    pass_rates: list[float] = field(default_factory=list)
    #: Workload-specific per-layer numbers (service / farm / baselines).
    layers: Counter = field(default_factory=Counter)
    #: (start, end) of operations whose latency :meth:`calibrate` records.
    spans: list[tuple[float, float]] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def record_ii(self, problem: str, ii: int) -> None:
        """Remember a problem's II; a different later II is a failure."""
        first = self.iis.setdefault(problem, ii)
        if first != ii:
            self.fail(f"{problem}: II {ii} differs from earlier II {first}")

    def ii_sum(self, problems: list[str]) -> int:
        return sum(self.iis.get(problem, FAILED_II) for problem in problems)

    def samples(self) -> int:
        return len(self.latencies) + len(self.spans)

    def calibrate(self, sampler: Sampler | None) -> None:
        """Turn the pending spans into latencies, at the reference speed
        when a sampler ran during them, else in wall time."""
        for start, end in self.spans:
            raw = end - start
            self.raw_latencies.append(raw)
            if sampler is None:
                self.latencies.append(raw)
            else:
                self.latencies.append(sampler.reference_seconds(start, end))
                self.slowdowns.append(raw / self.latencies[-1])
        self.spans.clear()


def _label(kernel: str, rows: int, cols: int) -> str:
    return f"{kernel}@{rows}x{cols}"


def _validate(mapping, allocation) -> str | None:
    """The legality oracle: ``None`` when the mapping checks out."""
    from repro.simulator import machine

    violations = mapping.violations()
    if violations:
        return "violations: " + violations[0]
    result = machine.CGRASimulator(mapping, allocation).run()
    if not result.success:
        return "simulation: " + (result.errors[0] if result.errors else "failed")
    return None


def child_pids(parent: int) -> list[int]:
    """Live processes whose parent is ``parent``."""
    return [pid for pid, ppid, _ in _proc_table() if ppid == parent]


def group_pids(group: int) -> list[int]:
    """Live processes in process group ``group``."""
    return [pid for pid, _, pgrp in _proc_table() if pgrp == group]


def _proc_table() -> list[tuple[int, int, int]]:
    """(pid, parent pid, process group) of every live process."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            table.append((int(entry), int(fields[1]), int(fields[2])))
    return table


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Shared shape: set-up, whole-pass timed loop, fixed traced work."""

    name = ""
    #: (kernel, rows, cols) of every distinct problem.
    problems: tuple[tuple[str, int, int], ...] = ()
    #: Modules a user of this workload imports (timed in a fresh interpreter).
    imports: tuple[str, ...] = ()
    #: Passes in the fixed (traced) work.
    fixed_passes = 1
    #: Set-ups per timed run; ``setup_s`` is their median.
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = env
        #: Process-hygiene failures (leftover children, crashed workers).
        self.problems_found: list[str] = []

    def problem_labels(self) -> list[str]:
        return [_label(*problem) for problem in self.problems]

    def config(self):
        """The mapper config whose fingerprint the provenance records."""
        raise NotImplementedError

    def reset(self) -> None:
        """Undo the previous set-up before the next one (not timed)."""

    def setup(self) -> None:
        """Everything up to the first timed operation."""
        # With a pipe, run() waits for its EOF instead of polling the child
        # in sleeps of up to 50 ms, which would show in the set-up time.
        subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(self.imports)],
            env=self.env, check=True, timeout=120, stdout=subprocess.PIPE,
        )

    def run_pass(self, tally: Tally, index: int) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Oracle and clean-up after a batch, outside any measured span."""

    def close(self) -> None:
        """Stop everything the workload started."""

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def sampler(self) -> contextlib.AbstractContextManager[Sampler | None]:
        """The sampler that calibrates timed spans, if this workload uses one."""
        return contextlib.nullcontext()

    def timed(self, seconds: float) -> Tally:
        """Whole passes until ``seconds`` have elapsed, calibrated."""
        tally = Tally()
        bounds = []
        with self.sampler() as sampler:
            start = time.perf_counter()
            while True:
                first = (tally.attempted, tally.samples())
                self.run_pass(tally, tally.passes)
                bounds.append((first, (tally.attempted, tally.samples())))
                tally.passes += 1
                if time.perf_counter() - start >= seconds:
                    break
            tally.wall_s = time.perf_counter() - start
        tally.calibrate(sampler)
        for (attempted, sample), (attempted_end, sample_end) in bounds:
            busy = sum(tally.latencies[sample:sample_end])
            tally.pass_rates.append((attempted_end - attempted) / busy)
        return tally

    def fixed(self) -> Tally:
        """The fixed work of a traced run, in raw wall-clock time."""
        tally = Tally()
        start = time.perf_counter()
        for index in range(self.fixed_passes):
            self.run_pass(tally, index)
            tally.passes += 1
        tally.wall_s = time.perf_counter() - start
        tally.calibrate(None)
        return tally


class InProcessMapping(Workload):
    """Compile from source, map, validate — all in this process."""

    imports = (
        "repro.core.mapper", "repro.frontend", "repro.kernels.suite",
        "repro.simulator", "repro.search.cache",
    )
    use_cache = False

    def config(self, cache_dir: str | None = None):
        from repro.core.mapper import MapperConfig

        return MapperConfig(timeout=MAP_TIMEOUT, random_seed=0, cache_dir=cache_dir)

    def sampler(self) -> Sampler:
        return Sampler()

    def setup(self) -> None:
        super().setup()
        from repro.cgra.architecture import CGRA
        from repro.kernels.suite import get_kernel_spec

        self.inputs = [
            (_label(kernel, rows, cols), kernel, get_kernel_spec(kernel).source,
             CGRA(rows=rows, cols=cols))
            for kernel, rows, cols in self.problems
        ]

    def run_pass(self, tally: Tally, index: int) -> None:
        from repro import frontend
        from repro.core.mapper import SatMapItMapper

        cache_dir = None
        if self.use_cache:
            cache_dir = str(self.workdir / f"cache-pass{index}")
        mapper = SatMapItMapper(self.config(cache_dir))
        for label, kernel, source, cgra in self.rng.sample(self.inputs, len(self.inputs)):
            tally.attempted += 1
            start = time.perf_counter()
            try:
                # Looked up on the module at call time so tracing sees it.
                dfg = frontend.compile_loop(source, name=kernel)
                outcome = mapper.map(dfg, cgra)
                if outcome.success:
                    error = _validate(outcome.mapping, outcome.register_allocation)
                else:
                    error = outcome.final_status
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            tally.spans.append((start, time.perf_counter()))
            if error is None:
                tally.record_ii(label, outcome.ii)
            else:
                tally.fail(f"{label}: {error}")

    def finish(self, tally: Tally) -> None:
        for path in self.workdir.glob("cache-pass*"):
            shutil.rmtree(path, ignore_errors=True)


class Refute4x4(InProcessMapping):
    name = "refute-4x4"
    problems = (("gsm", 4, 4), ("nw", 4, 4), ("hotspot", 4, 4), ("bitcount", 4, 4))


class BreadthSmall(InProcessMapping):
    name = "breadth-small"
    problems = (
        ("gsm", 2, 2), ("patricia", 2, 2), ("bitcount", 2, 2), ("nw", 2, 2),
        ("srand", 2, 2), ("basicmath", 2, 2), ("stringsearch", 2, 2),
        ("sha", 3, 3), ("gsm", 3, 3), ("nw", 3, 3), ("srand", 3, 3),
        ("hotspot", 3, 3), ("basicmath", 3, 3), ("stringsearch", 3, 3),
        ("srand", 4, 4), ("basicmath", 4, 4), ("stringsearch", 4, 4),
    )
    use_cache = True
    fixed_passes = 6


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------

#: Seconds a POST may block for its answer (above the mapping timeout).
_WAIT = MAP_TIMEOUT + 30.0
_CLIENTS = 2


def _http(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=_WAIT + 30.0)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(n,)) for n in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class ServeWarm(Workload):
    name = "serve-warm"
    problems = (
        ("nw", 2, 2), ("srand", 2, 2), ("basicmath", 2, 2), ("stringsearch", 2, 2),
        ("gsm", 3, 3), ("hotspot", 3, 3), ("srand", 4, 4), ("basicmath", 4, 4),
    )
    #: Requests per client in the fixed (traced) work.
    fixed_requests = 16
    #: A set-up maps every problem cold, so it is too dear to repeat five times.
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        super().__init__(seed, workdir, env)
        self.server: subprocess.Popen | None = None
        self.port = 0
        self.setups = 0
        self.cold: dict[str, dict] = {}
        self.answers: list[tuple[str, dict]] = []
        self.stats_before: dict = {}

    def _body(self, kernel: str, rows: int, cols: int) -> dict:
        from repro.kernels.suite import get_kernel_spec

        return {
            "source": get_kernel_spec(kernel).source,
            "arch": {"rows": rows, "cols": cols},
            "config": {"timeout": MAP_TIMEOUT, "random_seed": 0},
        }

    def config(self):
        from repro.service.protocol import parse_map_request

        return parse_map_request(self._body(*self.problems[0])).config

    def reset(self) -> None:
        self._stop_server()

    def setup(self) -> None:
        """Start a server on a fresh cache and fill it with cold answers."""
        self.setups += 1
        cache = self.workdir / f"service-cache{self.setups}"
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--pool", str(_CLIENTS), "--cache", str(cache)],
            stdout=subprocess.PIPE, env=self.env, start_new_session=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.server.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=60.0):
                raise RuntimeError("service did not report its address within 60 s")
        banner = self.server.stdout.readline().decode()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"unexpected service banner: {banner!r}")
        self.port = int(match.group(1))
        self.bodies = {
            _label(*problem): json.dumps(self._body(*problem)).encode()
            for problem in self.problems
        }
        labels = list(self.bodies)
        cold: dict[str, dict] = {}

        def prefill(number: int) -> None:
            for label in labels[number::_CLIENTS]:
                cold[label] = _http(self.port, "POST", f"/map?wait={_WAIT}",
                                    self.bodies[label])[1]

        _run_threads(prefill, _CLIENTS)
        self.cold = cold

    def _clients(self, seconds: float | None, per_client: int) -> Tally:
        """Closed loop: each client sends its next request after the answer."""
        tally = Tally()
        self.stats_before = _http(self.port, "GET", "/stats")[1]
        lock = threading.Lock()
        labels = sorted(self.bodies)
        start = time.perf_counter()

        def client(number: int) -> None:
            # Each client walks seeded permutations of its own half of the
            # problems: every problem is asked for equally often, and the
            # clients never join each other's in-flight job, so the share of
            # deduplicated requests cannot vary from run to run.
            rng = random.Random(f"{self.seed}:{number}")
            mine = labels[number::_CLIENTS]
            queue: list[str] = []
            round_start = None
            sent = 0
            while (sent < per_client if seconds is None
                   else time.perf_counter() - start < seconds):
                sent += 1
                if not queue:
                    # A round is one permutation; its rate stands for the
                    # whole loop, every client running like this one.
                    now = time.perf_counter()
                    if round_start is not None:
                        with lock:
                            tally.pass_rates.append(len(mine) * _CLIENTS / (now - round_start))
                            tally.passes += 1
                    round_start = now
                    queue = rng.sample(mine, len(mine))
                label = queue.pop()
                begin = time.perf_counter()
                try:
                    status, payload = _http(self.port, "POST", f"/map?wait={_WAIT}",
                                            self.bodies[label])
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, payload = 0, {"error": f"{type(exc).__name__}: {exc}"}
                latency = time.perf_counter() - begin
                with lock:
                    tally.attempted += 1
                    tally.latencies.append(latency)
                    tally.raw_latencies.append(latency)
                    if status != 200 or payload.get("status") != "done":
                        detail = payload.get("error", payload.get("status"))
                        tally.fail(f"{label}: HTTP {status} {detail}")
                        continue
                    self.answers.append((label, payload))
                    worker_s = payload["result"]["total_time_s"]
                    tally.layers["service.worker_s"] += worker_s
                    tally.layers["service.overhead_s"] += latency - worker_s

        _run_threads(client, _CLIENTS)
        tally.wall_s = time.perf_counter() - start
        return tally

    def timed(self, seconds: float) -> Tally:
        # Not calibrated: the loop is never quiet, and one factor taken
        # before and after the whole phase tripled the run-to-run spread
        # of these spawn-bound latencies instead of shrinking it.
        return self._clients(seconds, 0)

    def fixed(self) -> Tally:
        return self._clients(None, self.fixed_requests)

    def finish(self, tally: Tally) -> None:
        """Check /stats, then replay every answer and compare IIs."""
        from repro.core.mapping import Mapping

        stats = _http(self.port, "GET", "/stats")[1]
        requests, before = stats["requests"], self.stats_before["requests"]
        if requests["worker_crashes"]:
            self.problems_found.append(f"/stats worker_crashes={requests['worker_crashes']}")
        if requests["failed"]:
            self.problems_found.append(f"/stats failed={requests['failed']}")
        cache, cache_before = stats["cache"], self.stats_before["cache"]
        layers = tally.layers
        layers["service.solves_started"] = requests["solves_started"] - before["solves_started"]
        layers["service.dedup_joined"] = requests["dedup_joined"] - before["dedup_joined"]
        layers["cache.hits"] = cache["hits"] - cache_before["hits"]
        layers["cache.misses"] = cache["misses"] - cache_before["misses"]
        layers["cache.stores"] = cache["writes"] - cache_before["writes"]
        layers["cache.lookups"] = layers["cache.hits"] + layers["cache.misses"]

        def replay(payload: dict) -> tuple[int | None, str | None]:
            result = payload.get("result") or {}
            if payload.get("status") != "done" or not result.get("mapping"):
                return None, f"no mapping in answer: {payload.get('error', payload.get('status'))}"
            mapping = Mapping.from_dict(result["mapping"])
            return mapping.ii, _validate(mapping, None)

        cold_iis = {}
        for label, payload in self.cold.items():
            ii, error = replay(payload)
            if error is None:
                cold_iis[label] = ii
                tally.record_ii(label, ii)
            else:
                self.problems_found.append(f"{label}: cold answer: {error}")
        for label, payload in self.answers:
            ii, error = replay(payload)
            if error is None and ii != cold_iis.get(label):
                error = f"II {ii} differs from the cold answer's II {cold_iis.get(label)}"
            if error is None:
                tally.record_ii(label, ii)
            else:
                tally.fail(f"{label}: {error}")
        self.answers.clear()

    def _stop_server(self) -> None:
        """SIGINT the server, then require its whole process group gone."""
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.problems_found.append("service did not stop within 60 s of SIGINT")
            os.killpg(server.pid, signal.SIGKILL)
            server.communicate()
        deadline = time.monotonic() + 10.0
        while group_pids(server.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        leftovers = group_pids(server.pid)
        if leftovers:
            self.problems_found.append(f"leftover service processes {leftovers}")
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def close(self) -> None:
        self._stop_server()

    def peak_rss_mb(self) -> float:
        # The mapping happens in the server and its job workers; their
        # peak is visible once the server has been waited for.
        return _rss_mb(resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------------
# sweep-farm
# ---------------------------------------------------------------------------


class SweepFarm(Workload):
    name = "sweep-farm"
    imports = ("repro.experiments.runner", "repro.farm.scheduler")
    kernels = ("srand", "basicmath", "stringsearch", "nw", "gsm")
    sizes = (2, 3)
    jobs = 2
    fixed_passes = 3

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        super().__init__(seed, workdir, env)
        #: (kernel, size, mapper) -> IIs the farm reported, for the oracle.
        self.reported: dict[tuple[str, int, str], set[int]] = {}
        #: Set while a timed run measures the host between sweeps.
        self.checkpoints: Checkpoints | None = None

    def _experiment(self, kernels=None, sizes=None):
        from repro.experiments.runner import RAMP, SAT_MAPIT, ExperimentConfig

        return ExperimentConfig(
            kernels=tuple(kernels or self.kernels), sizes=tuple(sizes or self.sizes),
            mappers=(SAT_MAPIT, RAMP), seed=0,
        )

    def problem_labels(self) -> list[str]:
        from repro.experiments.runner import RAMP, SAT_MAPIT

        return [
            f"{kernel}@{size}x{size}/{mapper}"
            for kernel in self.kernels for size in self.sizes
            for mapper in (SAT_MAPIT, RAMP)
        ]

    def config(self):
        from repro.experiments.runner import SAT_MAPIT, build_mapper

        return build_mapper(SAT_MAPIT, self._experiment()).config

    def sampler(self) -> Checkpoints:
        self.checkpoints = Checkpoints()
        return self.checkpoints

    def run_pass(self, tally: Tally, index: int) -> None:
        from repro.experiments.runner import RAMP, run_sweep

        experiment = self._experiment(
            self.rng.sample(self.kernels, len(self.kernels)),
            self.rng.sample(self.sizes, len(self.sizes)),
        )
        journal = self.workdir / f"journal-{index}"
        start = time.perf_counter()
        result = run_sweep(experiment, jobs=self.jobs, journal_dir=str(journal))
        end = time.perf_counter()
        wall = end - start
        # A sweep is what a farm user waits for, so it is the latency sample.
        tally.spans.append((start, end))
        if self.checkpoints is not None:
            self.checkpoints.mark()
        layers = tally.layers
        layers["farm.items"] += result.farm.items
        layers["farm.retries"] += result.farm.retries
        layers["farm.overhead_s"] += wall - sum(
            record.mapping_time for record in result.records
        ) / self.jobs
        layers["baselines.self_s"] += sum(
            record.mapping_time for record in result.records if record.mapper == RAMP
        )
        for record in result.records:
            tally.attempted += 1
            label = f"{record.kernel}@{record.size}x{record.size}/{record.mapper}"
            if not record.succeeded or record.ii is None:
                tally.fail(f"{label}: {record.status} {record.failure}".strip())
                continue
            self.reported.setdefault((record.kernel, record.size, record.mapper), set()).add(record.ii)
            tally.record_ii(label, record.ii)

    def finish(self, tally: Tally) -> None:
        """Re-map every distinct item here and validate it."""
        from repro import frontend
        from repro.experiments.runner import HOMOGENEOUS, build_fabric, build_mapper
        from repro.kernels.suite import get_kernel_spec

        for path in self.workdir.glob("journal-*"):
            shutil.rmtree(path, ignore_errors=True)
        experiment = self._experiment()
        for (kernel, size, mapper_name), iis in sorted(self.reported.items()):
            dfg = frontend.compile_loop(get_kernel_spec(kernel).source, name=kernel)
            outcome = build_mapper(mapper_name, experiment).map(
                dfg, build_fabric(HOMOGENEOUS, size, experiment.registers_per_pe)
            )
            if outcome.success:
                error = _validate(outcome.mapping, outcome.register_allocation)
            else:
                error = f"oracle re-map {outcome.final_status}"
            if error is None and iis != {outcome.ii}:
                error = f"farm reported II {sorted(iis)}, validated re-map gives {outcome.ii}"
            if error is not None:
                tally.fail(f"{kernel}@{size}x{size}/{mapper_name}: {error}")
        self.reported.clear()

    def peak_rss_mb(self) -> float:
        return max(_rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN))


WORKLOADS = {
    workload.name: workload
    for workload in (Refute4x4, BreadthSmall, ServeWarm, SweepFarm)
}
