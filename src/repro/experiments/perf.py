"""Tracked performance harness for the SAT-MapIt mapping core.

The ROADMAP's north star demands the mapper run "as fast as the hardware
allows"; this module makes that a *measured* property.  It runs a pinned,
seeded suite of (kernel, fabric) mapping cases through :class:`SatMapItMapper`
and records per-case medians (mapper wall time, solve time, encode time,
conflicts, propagations/s) to ``BENCH_solver.json``, so every change to the
solver core leaves a comparable perf trajectory in the repository.

Two kinds of cases are pinned:

* **completing cases** — kernels the mapper finishes quickly; their wall time
  measures the end-to-end pipeline (encode + solve + register allocation).
* **conflict-bounded cases** (``#cN`` suffix) — instances far too hard to
  finish, run for exactly ``N`` solver conflicts at the minimum II.  Their
  wall time measures raw solver throughput (time per conflict) on a
  deterministic workload, which is the most sensitive regression sensor the
  suite has.

Every case is deterministic for the pinned seed, so medians over a handful of
repeats are stable and two runs on the same machine compare cleanly.
:func:`compare` implements the CI gate: it only fails on *gross* (>3x by
default) per-case slowdown, which tolerates machine noise while still
catching accidental algorithmic regressions.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass

from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import effective_minimum_ii
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat import native

#: Format tag written into the JSON so future schema changes are detectable.
SCHEMA = "satmapit-bench/1"

#: Default output file at the repository root.
DEFAULT_OUTPUT = "BENCH_solver.json"


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark case.

    ``conflict_limit`` turns the case into a bounded-workload throughput
    probe: the mapper runs a single (II = MII, slack 0) attempt for exactly
    that many conflicts and stops.  ``search`` / ``jobs`` select the II
    search strategy (``"portfolio"`` cases measure the orchestrator's
    wall-clock win over their same-kernel ladder twin, which ``run_suite``
    annotates as ``speedup_vs_ladder``).
    """

    name: str
    kernel: str
    size: int
    conflict_limit: int | None = None
    timeout: float = 120.0
    search: str = "ladder"
    jobs: int = 1
    #: Run the heuristic II-seeding pre-pass (``!seeded`` cases measure its
    #: wall-clock win over the same-kernel unseeded twin, annotated by
    #: ``run_suite`` as ``speedup_vs_unseeded``).
    seeded: bool = False

    @property
    def bounded(self) -> bool:
        return self.conflict_limit is not None


#: The pinned suite (seed 0 everywhere).  Completing cases first — from
#: encode-bound small instances up to a 4x4 run with real UNSAT proofs —
#: then the conflict-bounded throughput probes on instances that cannot
#: finish.  Sub-10ms cases are deliberately excluded: they measure noise,
#: not the mapper.
PINNED_SUITE: tuple[BenchCase, ...] = (
    BenchCase("hotspot@3x3", "hotspot", 3),
    BenchCase("stringsearch@3x3", "stringsearch", 3),
    BenchCase("sha@3x3", "sha", 3),
    BenchCase("gsm@2x2", "gsm", 2),
    BenchCase("backprop@3x3", "backprop", 3),
    BenchCase("gsm@4x4", "gsm", 4, timeout=300.0),
    # Multi-attempt kernels (a hard UNSAT/slack rung before the final SAT)
    # twice each: the sequential ladder, then the parallel portfolio racing
    # the same II range — the pair records the orchestrator's wall-clock win.
    BenchCase("hotspot@4x4", "hotspot", 4, timeout=300.0),
    BenchCase("hotspot@4x4!portfolio2", "hotspot", 4, timeout=300.0,
              search="portfolio", jobs=2),
    BenchCase("nw@4x4", "nw", 4, timeout=300.0),
    BenchCase("nw@4x4!portfolio2", "nw", 4, timeout=300.0,
              search="portfolio", jobs=2),
    # Heuristic-seeding twins: the same ladder search with the budgeted
    # RAMP/PathSeeker pre-pass priming the II frontier.  Where the heuristic
    # lands on (or near) the SAT-optimal II, the entire upward UNSAT climb
    # disappears (backprop@2x2, gsm@2x2); nw@4x4's seed only shaves the
    # ceiling, so its twin documents the honest no-win case.
    BenchCase("backprop@2x2", "backprop", 2),
    BenchCase("backprop@2x2!seeded", "backprop", 2, seeded=True),
    BenchCase("gsm@2x2!seeded", "gsm", 2, seeded=True),
    BenchCase("nw@4x4!seeded", "nw", 4, timeout=300.0, seeded=True),
    BenchCase("sha@2x2#c1500", "sha", 2, conflict_limit=1500),
    BenchCase("sha2@2x2#c1500", "sha2", 2, conflict_limit=1500),
    BenchCase("patricia@3x3#c1500", "patricia", 3, conflict_limit=1500),
    BenchCase("sha@4x4#c1500", "sha", 4, conflict_limit=1500),
)

#: Subset used by ``repro bench --suite quick`` and the CI smoke gate.
QUICK_SUITE: tuple[BenchCase, ...] = tuple(
    case
    for case in PINNED_SUITE
    if case.name in ("gsm@2x2", "gsm@2x2!seeded", "backprop@3x3",
                     "sha@2x2#c1500", "sha2@2x2#c1500")
)

SUITES = {"default": PINNED_SUITE, "quick": QUICK_SUITE}

#: Seed pinned for every case so two runs do identical solver work.
BENCH_SEED = 0

#: The farm throughput probe: a small end-to-end sweep pushed through the
#: leased work-queue farm (``repro.farm``) with two workers.  Unlike the
#: solver cases above it measures the *service* rate the farm sustains —
#: its headline stat is ``kernels_mapped_per_minute`` — so scheduler
#: overhead (leases, pipes, journalling to a scratch directory, the
#: fork-per-worker tax) is on the clock alongside the mapping itself.
FARM_CASE_NAME = "farm-sweep@3x3!jobs2"
FARM_KERNELS = ("srand", "basicmath", "gsm")
FARM_SIZE = 3
FARM_JOBS = 2

#: Cases whose baseline wall time is below this are reported but never fail
#: the gate: a single-repeat sub-50ms pure-Python run on a shared CI machine
#: swings by more than the 3x tolerance on scheduler noise alone.
MIN_GATE_WALL_S = 0.05


@dataclass(frozen=True)
class ScaleCase:
    """One partition-vs-exact scalability panel entry.

    The partitioned side runs :class:`repro.partition.PartitionMapper`
    with ``partitions`` row-strip regions; the exact side runs the
    monolithic mapper on the same (kernel, fabric) under the same wall
    budget.  ``ii_gap_vs_exact`` in the record is the stitching tax when
    the exact mapper finishes, and ``null`` when it cannot — which on the
    big fabrics is exactly the point.
    """

    name: str
    kernel: str
    size: int
    partitions: int
    timeout: float = 240.0
    exact_timeout: float = 240.0


#: The scalability panel: one fabric per size tier.  gsm@4x4 is the
#: calibration row (the exact mapper finishes, so the II gap is a real
#: number); sha2@8x8 and sha@16x16 are the instances the monolithic
#: encoding cannot finish in the budget — there the panel records the
#: partitioned mapper's absolute II and wall time, simulator-validated.
SCALE_PANEL: tuple[ScaleCase, ...] = (
    ScaleCase("gsm@4x4|p2", "gsm", 4, 2, timeout=120.0, exact_timeout=120.0),
    ScaleCase("sha2@8x8|p2", "sha2", 8, 2, timeout=240.0, exact_timeout=240.0),
    ScaleCase("sha@16x16|p4", "sha", 16, 4, timeout=240.0, exact_timeout=240.0),
)


def _case_config(case: BenchCase, dfg, cgra: CGRA) -> tuple[MapperConfig, int | None]:
    """Mapper configuration plus forced start II for one case.

    Two knobs make the achieved II a *property of the formula* rather than
    of the solver's search trajectory, so the harness can assert II equality
    across solver changes:

    * ``slack_conflict_limit=None`` — every slack attempt runs to a decisive
      SAT/UNSAT answer instead of an inconclusive bounded one;
    * ``run_register_allocation=False`` — the regalloc post-pass accepts or
      rejects *specific models*, so with it enabled the final II depends on
      which SAT model the trajectory happens to find first.
    """
    if case.bounded:
        # A single attempt at the minimum II with a per-solve conflict
        # budget: a deterministic hard workload under whatever solving
        # strategy the mapper ships by default (encoding escalation
        # included), so the measurement is end-to-end honest on both sides
        # of a baseline comparison.
        mii = effective_minimum_ii(dfg, cgra)
        config = MapperConfig(
            timeout=case.timeout,
            max_ii=mii,
            max_extra_slack=0,
            solver_conflict_limit=case.conflict_limit,
            run_register_allocation=False,
            random_seed=BENCH_SEED,
            # Probing would spend part of the fixed conflict budget in the
            # sequential phase; the throughput probes measure the escalated
            # (pairwise-optimised) regime directly.
            amo_probe_conflicts=None,
        )
        return config, mii
    config = MapperConfig(
        timeout=case.timeout,
        slack_conflict_limit=None,
        run_register_allocation=False,
        random_seed=BENCH_SEED,
        search=case.search,
        search_jobs=case.jobs,
        seed_heuristic=case.seeded,
    )
    return config, None


def run_case(case: BenchCase, repeats: int = 3) -> dict:
    """Run one case ``repeats`` times and return its median measurements."""
    dfg = get_kernel(case.kernel)
    cgra = CGRA.square(case.size)
    config, start_ii = _case_config(case, dfg, cgra)

    runs: list[tuple[float, dict]] = []
    for _ in range(max(1, repeats)):
        mapper = SatMapItMapper(config)
        start = time.perf_counter()
        outcome = mapper.map(dfg, cgra, start_ii=start_ii)
        wall = time.perf_counter() - start
        solve = sum(a.solve_time for a in outcome.attempts)
        encode = sum(a.encode_time for a in outcome.attempts)
        conflicts = sum(a.conflicts for a in outcome.attempts)
        propagations = sum(getattr(a, "propagations", 0) for a in outcome.attempts)
        record = {
            "name": case.name,
            "kernel": case.kernel,
            "size": case.size,
            "bounded": case.bounded,
            "conflict_limit": case.conflict_limit,
            "search": case.search,
            "seeded": case.seeded,
            # Which CDCL engine ran: "native" or "python" (the fallback).
            # A baseline recorded with one and compared against the other
            # shows up as a gross speed change on the solve-bound cases.
            "core": native.status().core,
            "seed_ii": getattr(outcome, "seed_ii", None),
            "status": outcome.final_status,
            "ii": outcome.ii,
            "attempts": len(outcome.attempts),
            "solve_s": round(solve, 4),
            "encode_s": round(encode, 4),
            "conflicts": conflicts,
            "propagations": propagations,
            "binary_propagations": sum(
                getattr(a, "binary_propagations", 0) for a in outcome.attempts
            ),
            "blocker_skips": sum(
                getattr(a, "blocker_skips", 0) for a in outcome.attempts
            ),
            "arena_bytes": max(
                (getattr(a, "arena_bytes", 0) for a in outcome.attempts), default=0
            ),
        }
        runs.append((wall, record))
    # Keep the run whose wall time is the median, so every reported stat
    # (solve time, conflicts, ...) comes from one coherent run.
    runs.sort(key=lambda entry: entry[0])
    median_wall, record = runs[len(runs) // 2]
    record["wall_s"] = round(median_wall, 4)
    record["wall_runs_s"] = [round(w, 4) for w, _ in runs]
    record["propagations_per_s"] = (
        round(record["propagations"] / record["solve_s"]) if record["solve_s"] else 0
    )
    return record


def run_farm_case(repeats: int = 1) -> dict:
    """Run the farm throughput probe and return a suite-shaped record.

    The record carries the standard case keys (so :func:`compare` and the
    aggregate loops treat it uniformly) with solver-core counters nulled —
    a sweep spans many solves across worker processes, so per-conflict
    stats are not meaningful here.  ``status`` is ``"swept"``, which keeps
    the probe out of the suite-level ``kernels_mapped_per_minute`` total
    (that total is the single-process number; this case is the farm's).
    """
    from repro.experiments.runner import (
        RAMP,
        SAT_MAPIT,
        ExperimentConfig,
        run_sweep,
    )

    config = ExperimentConfig(
        kernels=FARM_KERNELS,
        sizes=(FARM_SIZE,),
        mappers=(SAT_MAPIT, RAMP),
        timeout=120.0,
        seed=BENCH_SEED,
    )
    runs: list[tuple[float, dict]] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        sweep = run_sweep(config, jobs=FARM_JOBS)
        wall = time.perf_counter() - start
        mapped = sum(1 for r in sweep.records if r.status == "mapped")
        farm = sweep.farm
        record = {
            "name": FARM_CASE_NAME,
            "kernel": "+".join(FARM_KERNELS),
            "size": FARM_SIZE,
            "bounded": False,
            "conflict_limit": None,
            "search": "farm",
            "seeded": False,
            "core": native.status().core,
            "seed_ii": None,
            "status": "swept",
            "ii": None,
            "attempts": len(sweep.records),
            "solve_s": 0.0,
            "encode_s": 0.0,
            "conflicts": None,
            "propagations": None,
            "binary_propagations": None,
            "blocker_skips": None,
            "arena_bytes": None,
            "jobs": FARM_JOBS,
            "items": len(sweep.records),
            "mapped": mapped,
            "kernels_mapped_per_minute": (
                round(60.0 * mapped / wall, 2) if wall else 0.0
            ),
            "farm_retries": farm.retries if farm else 0,
            "farm_quarantined": farm.quarantined if farm else 0,
        }
        runs.append((wall, record))
    runs.sort(key=lambda entry: entry[0])
    median_wall, record = runs[len(runs) // 2]
    record["wall_s"] = round(median_wall, 4)
    record["wall_runs_s"] = [round(w, 4) for w, _ in runs]
    record["propagations_per_s"] = None
    return record


def run_scale_case(case: ScaleCase) -> dict:
    """Run one scalability panel entry: partitioned mapper vs exact twin.

    One repeat each — both sides are minutes-scale SAT runs, and the
    panel is informational (it documents reach, not a regression gate).
    The partitioned side must pass the cycle-accurate simulator replay
    for its ``status`` to read ``mapped``.
    """
    from repro.partition import PartitionConfig, PartitionMapper

    dfg = get_kernel(case.kernel)
    cgra = CGRA.square(case.size)

    start = time.perf_counter()
    part = PartitionMapper(
        PartitionConfig(num_partitions=case.partitions, timeout=case.timeout)
    ).map(dfg, cgra)
    part_wall = time.perf_counter() - start

    exact_config = MapperConfig(
        timeout=case.exact_timeout,
        attempt_time_limit=None,  # the monolithic twin gets its whole budget
        random_seed=BENCH_SEED,
    )
    start = time.perf_counter()
    exact = SatMapItMapper(exact_config).map(dfg, cgra)
    exact_wall = time.perf_counter() - start

    gap = (
        part.ii - exact.ii
        if part.success and exact.success and exact.ii is not None
        else None
    )
    return {
        "name": case.name,
        "kernel": case.kernel,
        "size": case.size,
        "partitions": case.partitions,
        "core": native.status().core,
        "partition": {
            "status": part.final_status,
            "ii": part.ii,
            "minimum_ii": part.minimum_ii,
            "wall_s": round(part_wall, 2),
            "ii_rounds": part.ii_rounds,
            "route_nodes": part.stitch.num_route_nodes if part.stitch else None,
            "validated": part.validated,
        },
        "exact": {
            "status": exact.final_status,
            "ii": exact.ii,
            "wall_s": round(exact_wall, 2),
            "timeout_s": case.exact_timeout,
        },
        "ii_gap_vs_exact": gap,
    }


def run_suite(
    suite: str = "default",
    repeats: int = 3,
    progress: bool = False,
    farm: bool = False,
    scale: bool = False,
) -> dict:
    """Run a pinned suite and return the full benchmark document."""
    try:
        cases = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {suite!r}; available: {sorted(SUITES)}"
        ) from None
    records = []
    for case in cases:
        record = run_case(case, repeats=repeats)
        records.append(record)
        if progress:
            conflicts = record["conflicts"]
            rate = record["propagations_per_s"]
            print(
                f"  {record['name']:22s} wall={record['wall_s']:8.3f}s "
                f"solve={record['solve_s']:8.3f}s encode={record['encode_s']:6.3f}s "
                f"conflicts={conflicts if conflicts is not None else '-':>6} "
                f"props/s={rate if rate is not None else '-'}",
                flush=True,
            )
    if farm:
        # One repeat is enough: the sweep spans six mapper runs, so the
        # farm probe self-averages more than any single-solve case does.
        record = run_farm_case(repeats=1)
        records.append(record)
        if progress:
            print(
                f"  {record['name']:22s} wall={record['wall_s']:8.3f}s "
                f"mapped={record['mapped']}/{record['items']} "
                f"kernels/min={record['kernels_mapped_per_minute']}",
                flush=True,
            )
    # Annotate every non-ladder case with its wall-clock ratio against the
    # same (kernel, size) ladder twin — the portfolio's headline number —
    # every seeded case with its ratio against the unseeded twin of the
    # same (kernel, size, search).  Seeded cases are excluded from the
    # ladder/unseeded reference tables so they never masquerade as a
    # reference.
    ladder_walls = {
        (r["kernel"], r["size"]): r["wall_s"]
        for r in records
        if r.get("search", "ladder") == "ladder"
        and not r["bounded"]
        and not r.get("seeded")
    }
    unseeded_walls = {
        (r["kernel"], r["size"], r.get("search", "ladder")): r["wall_s"]
        for r in records
        if not r["bounded"] and not r.get("seeded")
    }
    for record in records:
        if record["bounded"]:
            continue
        if record.get("seeded"):
            twin_wall = unseeded_walls.get(
                (record["kernel"], record["size"], record.get("search", "ladder"))
            )
            if twin_wall and record["wall_s"]:
                record["speedup_vs_unseeded"] = round(
                    twin_wall / record["wall_s"], 2
                )
            continue
        if record.get("search", "ladder") == "ladder":
            continue
        twin_wall = ladder_walls.get((record["kernel"], record["size"]))
        if twin_wall and record["wall_s"]:
            record["speedup_vs_ladder"] = round(twin_wall / record["wall_s"], 2)
    total_wall = sum(r["wall_s"] for r in records)
    total_solve = sum(r["solve_s"] for r in records)
    # Solver-core totals skip the farm probe's ``null`` counters.
    total_props = sum(r["propagations"] or 0 for r in records)
    # Service-level throughput: completed end-to-end mappings per minute of
    # mapper wall time (bounded probes never complete by construction and
    # are excluded from both sides of the ratio).
    completing = [
        r for r in records if not r["bounded"] and r["status"] == "mapped"
    ]
    completing_wall = sum(r["wall_s"] for r in completing)
    kernels_per_minute = (
        round(60.0 * len(completing) / completing_wall, 2)
        if completing_wall
        else 0.0
    )
    # The aggregate rate divides by the solve time of cases that report
    # propagations only, so a null-counter record cannot dilute it.
    counted_solve = sum(
        r["solve_s"] for r in records if r["propagations"] is not None
    )
    scale_panel: list[dict] = []
    if scale:
        for scale_case in SCALE_PANEL:
            record = run_scale_case(scale_case)
            scale_panel.append(record)
            if progress:
                part, exact = record["partition"], record["exact"]
                gap = record["ii_gap_vs_exact"]
                print(
                    f"  {record['name']:22s} "
                    f"partitioned II={part['ii']} ({part['status']}, "
                    f"{part['wall_s']:.1f}s) "
                    f"exact II={exact['ii']} ({exact['status']}, "
                    f"{exact['wall_s']:.1f}s) "
                    f"gap={gap if gap is not None else '-'}",
                    flush=True,
                )
    return {
        "schema": SCHEMA,
        "suite": suite,
        "seed": BENCH_SEED,
        "repeats": repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "core": native.status().core,
        "cases": records,
        "totals": {
            "wall_s": round(total_wall, 4),
            "solve_s": round(total_solve, 4),
            "encode_s": round(sum(r["encode_s"] for r in records), 4),
            "conflicts": sum(r["conflicts"] or 0 for r in records),
            "propagations": total_props,
            "propagations_per_s": (
                round(total_props / counted_solve)
                if counted_solve
                else 0
            ),
            "kernels_mapped_per_minute": kernels_per_minute,
        },
        # Partition-vs-exact reach panel (empty unless ``scale=True``):
        # informational, never gated — wall times here are minutes-scale
        # SAT runs whose variance would make a ratio gate pure noise.
        "scale_panel": scale_panel,
    }


def write_results(results: dict, path: str = DEFAULT_OUTPUT) -> None:
    """Write the benchmark document as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(results, stream, indent=2, sort_keys=False)
        stream.write("\n")


def load_results(path: str) -> dict:
    """Read a benchmark document, validating the schema tag."""
    with open(path, encoding="utf-8") as stream:
        data = json.load(stream)
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unexpected schema {data.get('schema')!r} (want {SCHEMA!r})"
        )
    return data


def compare(
    baseline: dict, current: dict, max_slowdown: float = 3.0
) -> tuple[bool, list[str]]:
    """CI gate: fail on gross per-case slowdown or coverage loss vs baseline.

    Returns ``(ok, report_lines)``.  A case present only in the *current*
    run is reported but never fails the gate (the pinned suite may grow);
    a baseline case **missing from the current run is a hard failure** —
    otherwise deleting or renaming cases would silently shrink what the
    perf gate protects.  An II mismatch on a shared completing case also
    fails: faster-but-wrong is a regression.  So does trajectory drift: on
    a shared non-bounded case that completed within its limits on both
    sides, ``conflicts`` and ``propagations`` are exact functions of the
    code and the seed, and any difference from the baseline fails.
    Portfolio cases are exempt from the drift check: their lanes race in
    separate processes, and which lane's attempts land in the record
    depends on timing.
    """
    lines: list[str] = []
    ok = True
    base_core, core = baseline.get("core"), current.get("core")
    if base_core != core:
        lines.append(f"solver core changed: {base_core} -> {core}")
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    for entry in current.get("cases", []):
        name = entry["name"]
        base = base_cases.get(name)
        if base is None:
            lines.append(f"{name}: new case (no baseline)")
            continue
        if not entry.get("bounded") and base.get("ii") != entry.get("ii"):
            # Completing cases are configured so the II is a pure formula
            # property — a change is a correctness regression.  Bounded
            # throughput probes are exempt: a lucky trajectory may conclude
            # inside the conflict budget, which is not a defect.
            ok = False
            lines.append(
                f"{name}: II changed {base.get('ii')} -> {entry.get('ii')} (FAIL)"
            )
            continue
        drift = _trajectory_drift(base, entry)
        if drift:
            ok = False
            lines.append(f"{name}: {drift} (FAIL)")
            continue
        base_wall = base.get("wall_s") or 0.0
        wall = entry.get("wall_s") or 0.0
        if base_wall <= 0:
            lines.append(f"{name}: baseline wall time missing, skipped")
            continue
        ratio = wall / base_wall
        if base_wall < MIN_GATE_WALL_S:
            lines.append(
                f"{name}: {base_wall:.3f}s -> {wall:.3f}s ({ratio:.2f}x) "
                "informational (below gate floor)"
            )
            continue
        verdict = "ok"
        if ratio > max_slowdown:
            ok = False
            verdict = f"FAIL (> {max_slowdown:.1f}x)"
        elif ratio < 1.0:
            verdict = f"{1 / ratio:.2f}x faster"
        # Informational propagation-rate delta — skipped entirely when
        # either side reports null rates (the farm probe).
        base_rate = base.get("propagations_per_s")
        rate = entry.get("propagations_per_s")
        rate_note = ""
        if base_rate and rate is not None:
            rate_note = f", props/s {base_rate} -> {rate}"
        lines.append(
            f"{name}: {base_wall:.3f}s -> {wall:.3f}s ({ratio:.2f}x) "
            f"{verdict}{rate_note}"
        )
    current_names = {c["name"] for c in current.get("cases", [])}
    for name in base_cases:
        if name not in current_names:
            ok = False
            lines.append(f"{name}: missing from current run (FAIL)")
    return ok, lines


def _trajectory_drift(base: dict, entry: dict) -> str | None:
    """Name the search counters that moved on a case both runs completed."""
    completed = base.get("status") == entry.get("status") == "mapped"
    if entry.get("bounded") or entry.get("search") == "portfolio" or not completed:
        return None
    moved = [
        f"{counter} changed {base[counter]} -> {entry[counter]}"
        for counter in ("conflicts", "propagations")
        if base.get(counter) is not None
        and entry.get(counter) is not None
        and base[counter] != entry[counter]
    ]
    return "; ".join(moved) or None


def check_strategy_equivalence(
    suite: str = "default",
    progress: bool = False,
    reference_doc: dict | None = None,
) -> tuple[bool, list[str]]:
    """CI gate: every strategy — seeded or not — must match the ladder's II.

    Every completing (non-bounded) unseeded-ladder case of the suite is run
    once under the portfolio *and* once under each strategy with the
    heuristic seeding pre-pass enabled; achieved II and final
    status must equal the unseeded ladder's.  The suite's completing cases
    are configured so the II is a formula property (decisive attempts, no
    regalloc post-pass) — any divergence is an orchestration bug, not
    noise; in particular a seed may only *bound* the search, never inflate
    the returned II.  ``reference_doc`` (a document from :func:`run_suite`)
    supplies the ladder answers without re-solving them; missing cases fall
    back to a fresh reference run.
    """
    from dataclasses import replace as dc_replace

    cases = [
        case
        for case in SUITES[suite]
        if not case.bounded and case.search == "ladder" and not case.seeded
    ]
    references = {
        record["name"]: record
        for record in (reference_doc or {}).get("cases", [])
    }
    variants = [
        ("portfolio", False),
        ("ladder", True),
        ("portfolio", True),
    ]
    lines: list[str] = []
    ok = True
    for case in cases:
        reference = references.get(case.name) or run_case(case, repeats=1)
        rows = [
            (f"{strategy}+seed" if seeded else strategy,
             dict(search=strategy,
                  jobs=2 if strategy == "portfolio" else 1,
                  seeded=seeded))
            for strategy, seeded in variants
        ]
        for label, overrides in rows:
            variant = dc_replace(
                case, name=f"{case.name}!{label}", **overrides
            )
            result = run_case(variant, repeats=1)
            same = (
                result["ii"] == reference["ii"]
                and result["status"] == reference["status"]
            )
            verdict = "ok" if same else "FAIL"
            if not same:
                ok = False
            line = (
                f"{case.name}: ladder II={reference['ii']} "
                f"{label} II={result['ii']} ({verdict})"
            )
            lines.append(line)
            if progress:
                print(f"  {line}", flush=True)
    return ok, lines


def main(argv: list[str] | None = None) -> int:
    """Entry point shared by ``repro bench`` and ``benchmarks/perf_harness.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="perf_harness",
        description="Run the pinned SAT-MapIt performance suite",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="default")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per case; the median wall time is kept")
    parser.add_argument("--out", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", metavar="FILE",
                        help="compare against a previous BENCH_solver.json and "
                             "fail on gross slowdown")
    parser.add_argument("--max-slowdown", type=float, default=3.0,
                        help="per-case wall-time ratio that fails the "
                             "--baseline gate (default: 3.0)")
    parser.add_argument("--no-farm", action="store_true",
                        help="skip the farm throughput probe "
                             f"({FARM_CASE_NAME})")
    parser.add_argument("--scale", action="store_true",
                        help="also run the partition-vs-exact scalability "
                             "panel (minutes-scale; informational, "
                             "never gated)")
    parser.add_argument("--check-strategies", action="store_true",
                        help="re-run every completing case under the "
                             "portfolio and with the seeding pre-pass, and "
                             "fail on any II divergence from the ladder")
    args = parser.parse_args(argv)

    print(f"perf harness: suite={args.suite} repeats={args.repeats} "
          f"seed={BENCH_SEED}")
    results = run_suite(
        args.suite, repeats=args.repeats, progress=True,
        farm=not args.no_farm, scale=args.scale,
    )
    totals = results["totals"]
    print(f"totals: wall={totals['wall_s']:.3f}s solve={totals['solve_s']:.3f}s "
          f"encode={totals['encode_s']:.3f}s "
          f"props/s={totals['propagations_per_s']}")
    write_results(results, args.out)
    print(f"results written to {args.out}")

    if args.baseline:
        baseline = load_results(args.baseline)
        ok, lines = compare(baseline, results, max_slowdown=args.max_slowdown)
        print(f"\nbaseline comparison ({args.baseline}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("perf gate FAILED", file=sys.stderr)
            return 1
        print("perf gate passed")

    if args.check_strategies:
        print("\nstrategy equivalence (ladder vs portfolio, with and "
              "without seed):")
        ok, _lines = check_strategy_equivalence(
            args.suite, progress=True, reference_doc=results,
        )
        if not ok:
            print("strategy equivalence FAILED", file=sys.stderr)
            return 1
        print("strategy equivalence passed")
    return 0
