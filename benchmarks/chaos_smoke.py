"""Chaos smoke: a faulted farm sweep must equal the fault-free one.

Runs a small sweep twice through the work-queue farm
(``repro.farm``): once clean, once with the fault injector killing a
worker on its first item *and* dooming every item's first backend
attempt.  The run fails unless the faulted sweep produces identical
records (kernel, size, mapper, scenario, status, II) with nonzero
retry/crash counters — the farm's headline invariant, exercised by the
CI ``chaos-smoke`` job::

    PYTHONPATH=src python benchmarks/chaos_smoke.py

``--full`` (the nightly flavour) adds two more faulted rounds: a
SIGSTOP-wedged worker reaped at its item deadline, and a mid-run cache
corruption that must be detected rather than served.

Not a pytest module on purpose — this is the operational drill, kept
runnable on its own so an operator can point it at a suspect machine;
the fine-grained chaos matrix lives in ``tests/farm/``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.experiments.runner import (
    RAMP,
    SAT_MAPIT,
    ExperimentConfig,
    run_sweep,
)
from repro.farm.faults import FaultPlan

CONFIG = ExperimentConfig(
    kernels=("srand", "basicmath"),
    sizes=(3,),
    mappers=(SAT_MAPIT, RAMP),
    timeout=120.0,
)
JOBS = 2


def _shape(sweep) -> list[tuple]:
    return [
        (r.kernel, r.size, r.mapper, r.scenario, r.status, r.ii)
        for r in sweep.records
    ]


def _run_round(name: str, clean_shape: list[tuple], plan: FaultPlan) -> int:
    start = time.perf_counter()
    faulted = run_sweep(CONFIG, jobs=JOBS, faults=plan)
    wall = time.perf_counter() - start
    farm = faulted.farm
    print(f"{name}: {farm.summary()} ({wall:.1f}s)")
    failures = 0
    if _shape(faulted) != clean_shape:
        print(f"{name}: FAIL — faulted records differ from the clean sweep",
              file=sys.stderr)
        for clean_row, bad_row in zip(clean_shape, _shape(faulted)):
            marker = "  " if clean_row == bad_row else "! "
            print(f"  {marker}{clean_row} vs {bad_row}", file=sys.stderr)
        failures += 1
    if farm.retries < 1:
        print(f"{name}: FAIL — no retries recorded; were faults injected?",
              file=sys.stderr)
        failures += 1
    if farm.quarantined:
        print(f"{name}: FAIL — {farm.quarantined} item(s) quarantined",
              file=sys.stderr)
        failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos_smoke",
        description="Diff a fault-injected farm sweep against a clean one",
    )
    parser.add_argument("--full", action="store_true",
                        help="also run the wedge and cache-corruption "
                             "rounds (the nightly flavour)")
    args = parser.parse_args(argv)

    print(f"chaos smoke: kernels={','.join(CONFIG.kernels)} "
          f"sizes={','.join(str(s) for s in CONFIG.sizes)} jobs={JOBS}")
    start = time.perf_counter()
    clean = run_sweep(CONFIG, jobs=JOBS)
    clean_shape = _shape(clean)
    print(f"clean: {clean.farm.summary()} "
          f"({time.perf_counter() - start:.1f}s)")
    if clean.farm.retries or clean.farm.worker_crashes:
        print("clean: FAIL — the fault-free sweep recorded faults",
              file=sys.stderr)
        return 1

    # The smoke round: one worker SIGKILLed on its first item, and every
    # item's first backend attempt doomed.  Both fault kinds must be
    # absorbed by requeue + retry without changing a single record.
    failures = _run_round(
        "kill+backend",
        clean_shape,
        FaultPlan(kill_worker_after=0, backend_fail_rate=1.0,
                  backend_fail_attempts=1),
    )

    if args.full:
        # A short item budget: the wedged item is reaped at its deadline,
        # the budget plus the farm's fixed grace.
        wedge_config = ExperimentConfig(
            kernels=CONFIG.kernels,
            sizes=CONFIG.sizes,
            mappers=CONFIG.mappers,
            timeout=5.0,
        )
        start = time.perf_counter()
        wedged = run_sweep(wedge_config, jobs=JOBS,
                           faults=FaultPlan(wedge_worker_after=0))
        wall = time.perf_counter() - start
        print(f"wedge: {wedged.farm.summary()} ({wall:.1f}s)")
        if _shape(wedged) != clean_shape or wedged.farm.deadlines_expired < 1:
            print("wedge: FAIL — records differ or no deadline expired",
                  file=sys.stderr)
            failures += 1
        with tempfile.TemporaryDirectory(prefix="chaos-cache-") as cache_dir:
            cache_config = ExperimentConfig(
                kernels=CONFIG.kernels,
                sizes=CONFIG.sizes,
                mappers=CONFIG.mappers,
                timeout=CONFIG.timeout,
                cache_dir=cache_dir,
            )
            start = time.perf_counter()
            corrupted = run_sweep(cache_config, jobs=JOBS,
                                  faults=FaultPlan(corrupt_cache_after=0))
            resweep = run_sweep(cache_config, jobs=JOBS)
            wall = time.perf_counter() - start
            print(f"cache-corrupt: {corrupted.farm.summary()} ({wall:.1f}s)")
            if _shape(corrupted) != clean_shape or _shape(resweep) != clean_shape:
                print("cache-corrupt: FAIL — a corrupted entry leaked into "
                      "the records", file=sys.stderr)
                failures += 1

    if failures:
        print(f"chaos smoke FAILED ({failures} check(s))", file=sys.stderr)
        return 1
    print("chaos smoke passed: faulted sweeps matched the clean records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
