"""End-to-end and per-layer benchmark of the SAT-MapIt mapper.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refute-4x4 --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times, then measures whole passes
of it for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``; mappings made in this process are timed at a reference
host speed by ``workloads.Sampler``, everything else in wall time.
``--trace 1`` runs a fixed amount of work twice, first untraced and then with every layer wrapped by the span recorder of
``layers.py``, and reports the per-layer metrics plus the tracing overhead.
Every metric is printed by name and unit with its sample count and the
correctness checks; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of each run (provenance, metrics, failure reasons, spans) is
written under ``.bench_build/perfbench/`` in the checkout.

The program under test is imported from ``src/`` of the checkout the
script sits in; without it the script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import ROOT_SPAN, WRAPPED, Recorder, Tracing, layer_metrics
from workloads import WORKLOADS, child_pids

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
#: Counters that must repeat exactly across traced runs with one seed.
EXACT = ("sat.conflicts", "sat.propagations", "encoder.clauses", "regalloc.calls", "ii_sum")
#: Below this many samples a run has fewer than ten beyond its p90.
P90_SAMPLES = 100
#: Metric prefixes whose times come from spans, so they share the traced wall.
SPANNED = {layer.split(".")[0] for layer, *_ in WRAPPED}


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def prepare_program(workdir: Path) -> dict:
    """Make this checkout's ``src/`` the program; return the child env."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    # The farm reads fault injection from the environment.
    os.environ.pop("REPRO_CHAOS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return dict(os.environ)


def provenance(workload, args, digest: str) -> dict:
    from repro.search.cache import config_fingerprint

    fingerprint = config_fingerprint(workload.config())
    canonical = json.dumps(fingerprint, sort_keys=True, default=str)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "problems": workload.problem_labels(),
        "git_commit": git_commit(),
        "src_digest": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "config_digest": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "config": fingerprint,
    }


def end_to_end(workload, tally, setup_times: list[float]) -> dict[str, float]:
    ordered = sorted(tally.latencies)
    ok_frac = (tally.attempted - tally.failed) / tally.attempted
    rates = tally.pass_rates or [tally.attempted / tally.wall_s]
    return {
        "setup_s": statistics.median(setup_times),
        "mapped_per_min": 60.0 * ok_frac * statistics.median(rates),
        "latency_p50_s": nearest_rank(ordered, 0.5),
        "latency_p90_s": nearest_rank(ordered, 0.9),
        "ii_sum": tally.ii_sum(workload.problem_labels()),
        "ok_frac": ok_frac,
    }


def traced_run(workload) -> tuple[object, dict[str, float], object]:
    """Untraced then traced fixed work; per-layer metrics of the traced one."""
    untraced = workload.fixed()
    workload.finish(untraced)
    recorder = Recorder()
    with Tracing(recorder) as tracing:
        root = recorder.enter(ROOT_SPAN)
        try:
            traced = workload.fixed()
        finally:
            wall_ns = recorder.exit(root)
    workload.finish(traced)
    metrics = layer_metrics(recorder)
    # Service, farm and baselines numbers come from the program's own reports.
    metrics.update(traced.layers)
    attributed = sum(ns for layer, ns in recorder.self_ns.items() if layer != ROOT_SPAN)
    metrics.update({
        "trace.wall_s": wall_ns / 1e9,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
        "trace.attributed_frac": attributed / wall_ns,
        "trace.ops": traced.attempted,
        "trace.absent_layers": len(tracing.absent),
    })
    for missing in tracing.absent:
        print(f"layer absent on this commit: {missing}")
    # Both batches are operations the run attempted, and must agree on IIs.
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.reasons.update(untraced.reasons)
    for problem, ii in untraced.iis.items():
        traced.record_ii(problem, ii)
    return traced, metrics, recorder


def exact_repeat(args, digest: str, values: dict) -> str | None:
    """Compare exact counters with an earlier traced run of this seed."""
    path = OUT / "repeat" / f"{args.workload}-seed{args.seed}-{digest[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != values:
            return f"exact-repeat mismatch against {path.name}: {earlier} != {values}"
        print(f"exact repeat: identical to the earlier traced run ({path.name})")
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True))
    print(f"exact repeat: first traced run of this seed, counters stored in {path.name}")
    return None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {SRC}; run from a full checkout")

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    import_start = time.perf_counter()
    env = prepare_program(workdir)
    import_s = time.perf_counter() - import_start
    digest = src_digest()
    workload = WORKLOADS[args.workload](args.seed, workdir, env)
    record = {"provenance": provenance(workload, args, digest), "trace": args.trace}
    checks: list[str] = []
    recorder = None
    try:
        setup_times = []
        for _ in range(1 if args.trace else workload.setup_reps):
            workload.reset()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            tally, metrics, recorder = traced_run(workload)
            exact = {name: metrics.get(name, 0) for name in EXACT if name != "ii_sum"}
            exact["ii_sum"] = tally.ii_sum(workload.problem_labels())
            mismatch = exact_repeat(args, digest, exact)
            if mismatch:
                print(f"FAIL: {mismatch}", file=sys.stderr)
                checks.append(mismatch)
        else:
            tally = workload.timed(args.seconds)
            workload.finish(tally)
            metrics = end_to_end(workload, tally, setup_times)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = workload.peak_rss_mb()
    checks.extend(workload.problems_found)
    leftovers = child_pids(os.getpid())
    if leftovers:
        checks.append(f"leftover child processes {leftovers}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {
        item["name"]: {"value": metrics.get(item["name"], 0), "unit": item["unit"]}
        for item in wanted
    }
    correct = tally.failed == 0 and not checks

    print(f"perfbench {args.workload}: seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"program import: {import_s:.3f} s in this process")
    print(f"set-up: {len(setup_times)} run(s), median {statistics.median(setup_times):.3f} s "
          f"wall ({', '.join(f'{value:.3f}' for value in setup_times)})")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"{tally.passes} pass(es), wall {tally.wall_s:.3f} s")
    for reason, count in tally.reasons.most_common():
        print(f"  failed x{count}: {reason}")
    for check in checks:
        print(f"  check failed: {check}")
    samples = len(tally.latencies)
    if args.trace:
        wall = metrics["trace.wall_s"]
        print(f"traced work: {samples} latency samples; layers cover "
              f"{100 * metrics['trace.attributed_frac']:.1f}% of the traced wall; "
              f"tracing overhead {100 * metrics['trace.overhead_frac']:+.1f}%")
        for name, item in result_metrics.items():
            share = ""
            if name.endswith("_s") and name.split(".")[0] in SPANNED:
                share = f"  ({100 * item['value'] / wall:5.1f}% of traced wall)"
            print(f"  {name:26s} {item['value']:>16.6g} {item['unit']}{share}")
        if metrics.get("service.overhead_s"):
            print(f"service overhead: {100 * metrics['service.overhead_s'] / sum(tally.latencies):.1f}% "
                  f"of summed request latency")
    else:
        note = "" if samples >= P90_SAMPLES else (
            f"; fewer than {P90_SAMPLES}, so fewer than ten lie beyond p90"
        )
        print(f"latency samples: n={samples}{note}")
        if tally.slowdowns:
            print(f"host slowdown: median {statistics.median(tally.slowdowns):.3f} over "
                  f"{len(tally.slowdowns)} spans; wall-clock latency p50 "
                  f"{nearest_rank(sorted(tally.raw_latencies), 0.5):.6g} s")
            print("latencies below are seconds at the reference speed")
        for name, item in result_metrics.items():
            print(f"  {name:26s} {item['value']:>16.6g} {item['unit']}")
    print(f"correct: {correct}")

    record.update(
        metrics=result_metrics, setup_s=setup_times,
        latencies=tally.latencies, raw_latencies=tally.raw_latencies,
        slowdowns=tally.slowdowns, reasons=dict(tally.reasons), checks=checks,
        correct=correct,
    )
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if recorder is not None:
        with open(records / f"{stem}-spans.jsonl", "w", encoding="utf-8") as spans:
            for layer, start, end, parent in recorder.spans:
                spans.write(json.dumps([layer, start, end, parent]) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
