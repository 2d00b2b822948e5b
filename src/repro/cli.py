"""Command line interface.

Five sub-commands::

    satmapit map --kernel gsm --rows 4 --cols 4          # map one kernel
    satmapit map --kernel nw --arch-preset mem_edge_4x4  # heterogeneous fabric
    satmapit sweep --sizes 2 3 --timeout 30              # reproduce Fig.6/Tables
    satmapit bench --baseline BENCH_solver.json          # tracked perf suite
    satmapit serve --port 8157 --cache .service-cache    # mapping-as-a-service
    satmapit show --kernel gsm                           # inspect a kernel DFG

``python -m repro.cli`` works identically when the console script is not on
PATH.  ``map --profile`` wraps the run in cProfile and prints the top
cumulative functions — the profiling recipe from DESIGN.md in one flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.cgra.architecture import CGRA
from repro.cgra.presets import arch_preset_names, get_arch_preset
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.core.visualize import render_mapping_report
from repro.dfg.analysis import minimum_initiation_interval
from repro.exceptions import ArchitectureError, FarmError, MappingError
from repro.experiments.perf import (
    DEFAULT_OUTPUT as BENCH_DEFAULT_OUTPUT,
    SUITES as BENCH_SUITES,
    main as perf_main,
)
from repro.experiments.report import write_markdown_report
from repro.experiments.runner import (
    FAILURE_STATUSES,
    SAT_MAPIT,
    SCENARIOS,
    ExperimentConfig,
    run_sweep,
)
from repro.experiments.tables import (
    render_figure6,
    render_headline,
    render_mapping_time_table,
    render_scenario_comparison,
)
from repro.frontend import compile_loop
from repro.kernels import (
    all_kernel_names,
    get_kernel,
    get_kernel_spec,
    scale_kernel_names,
)
from repro.sat.backend import BackendUnavailableError
from repro.sat.encodings import AMOEncoding


def _load_dfg(args: argparse.Namespace):
    if args.kernel:
        return get_kernel(args.kernel)
    if args.source:
        with open(args.source, encoding="utf-8") as stream:
            return compile_loop(stream.read(), name=args.source)
    raise SystemExit("either --kernel or --source is required")


def _load_cgra(args: argparse.Namespace) -> CGRA:
    """Build the target fabric: spec file > named preset > rows/cols flags.

    A spec file is authoritative (it carries its own register counts);
    presets honour ``--registers``.
    """
    if args.arch_spec:
        return CGRA.from_spec_file(args.arch_spec)
    if args.arch_preset:
        return get_arch_preset(args.arch_preset, registers_per_pe=args.registers)
    return CGRA(rows=args.rows, cols=args.cols, registers_per_pe=args.registers)


def _cli_error(exc: BaseException) -> int:
    """The one-line CLI error contract, shared by every sub-command.

    A :class:`MappingError` (unmappable kernel) or
    :class:`BackendUnavailableError` (a solver binary lost, with its
    install hint) prints as a single ``error:`` line on stderr and exits 2 —
    never as a traceback, whether it was raised by ``map``, mid-``sweep``
    in a worker process, or inside the service.
    """
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_map(args: argparse.Namespace) -> int:
    dfg = _load_dfg(args)
    try:
        cgra = _load_cgra(args)
    except ArchitectureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config_fields = dict(
        timeout=args.timeout,
        verbose=args.verbose,
        amo_encoding=AMOEncoding(args.amo_encoding),
        random_seed=args.seed,
        cache_dir=args.cache,
        cache_max_mb=args.cache_max_mb,
        seed_heuristic=args.seed_heuristic,
        seed_time_budget=args.seed_budget,
        proof=args.proof,
    )
    try:
        mapper = SatMapItMapper(MapperConfig(**config_fields))
    except ValueError as exc:
        # An out-of-range budget, e.g. a negative --timeout.
        return _cli_error(exc)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        outcome = mapper.map(dfg, cgra)
    except (MappingError, BackendUnavailableError) as exc:
        # E.g. the kernel's opcode histogram cannot fit the fabric at any
        # II.
        return _cli_error(exc)
    finally:
        if profiler is not None:
            import io
            import pstats

            profiler.disable()
            buffer = io.StringIO()
            pstats.Stats(profiler, stream=buffer).sort_stats(
                "cumulative"
            ).print_stats(25)
            print(buffer.getvalue())
    print(outcome.summary())
    if args.seed_heuristic and not outcome.cache_hit:
        if outcome.seed_ii is not None:
            used = " (final answer)" if outcome.seed_used else ""
            print(
                f"seed: {outcome.seed_mapper} found II={outcome.seed_ii} "
                f"in {outcome.seed_time:.3f}s{used}"
            )
        else:
            print(
                f"seed: no feasible heuristic mapping within "
                f"{outcome.seed_time:.3f}s — unseeded search"
            )
    if outcome.cache_stats is not None:
        verdict = "hit" if outcome.cache_hit else "miss"
        key = (outcome.cache_key or "")[:12]
        print(f"cache: {verdict} [{key}…] — {outcome.cache_stats.summary()}")
    if args.proof and not outcome.cache_hit:
        digests = [
            (attempt.ii, attempt.proof_digest)
            for attempt in outcome.attempts
            if attempt.proof_digest
        ]
        if digests:
            import os

            ii, digest = digests[-1]
            # Only advertise a trace that still exists (TMPDIR may have
            # been cleaned under a long run).
            location = (
                f" — trace: {outcome.proof_path}"
                if outcome.proof_path and os.path.exists(outcome.proof_path)
                else ""
            )
            print(
                f"proof: {len(digests)} UNSAT attempt(s) logged, "
                f"last II={ii} digest {digest[:16]}…{location}"
            )
        else:
            print("proof: no UNSAT attempts (nothing to certify)")
    if outcome.mapping is not None:
        print()
        print(render_mapping_report(outcome.mapping, outcome.register_allocation))
        if args.save_mapping:
            with open(args.save_mapping, "w", encoding="utf-8") as stream:
                stream.write(outcome.mapping.to_json())
                stream.write("\n")
            print(f"\nmapping saved to {args.save_mapping}")
        return 0
    return 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    journal_dir = args.resume if args.resume else args.journal
    try:
        config = ExperimentConfig(
            kernels=tuple(args.kernels),
            sizes=tuple(args.sizes),
            timeout=args.timeout,
            pathseeker_repeats=args.pathseeker_repeats,
            amo_encoding=AMOEncoding(args.amo_encoding),
            seed=args.seed,
            scenarios=tuple(args.scenarios),
            cache_dir=args.cache,
            cache_max_mb=args.cache_max_mb,
            seed_heuristic=args.seed_heuristic,
            proof=args.proof,
        )
    except ValueError as exc:
        # An out-of-range budget, e.g. a negative --timeout.
        return _cli_error(exc)
    print(f"running sweep: {len(config.kernels)} kernels x "
          f"{len(config.sizes)} sizes x {len(config.mappers)} mappers"
          + (f" x {len(config.scenarios)} scenarios"
             if len(config.scenarios) > 1 else "")
          + (f" ({args.jobs} parallel jobs)" if args.jobs > 1 else "")
          + (f", resuming {args.resume}" if args.resume else ""))
    try:
        sweep = run_sweep(
            config,
            progress=True,
            jobs=args.jobs,
            journal_dir=journal_dir,
            resume=bool(args.resume),
        )
    except (MappingError, BackendUnavailableError, FarmError) as exc:
        # The up-front validation cannot catch everything: a scenario
        # fabric can reject a kernel, and a --resume can point at a journal
        # from a different configuration.  Both must surface exactly like
        # the ``map`` path — one line — not as a worker-process traceback.
        return _cli_error(exc)
    if sweep.farm is not None:
        print(f"\nfarm: {sweep.farm.summary()}")
        for record in sweep.records:
            if record.status in FAILURE_STATUSES:
                print(f"  {record.status}: {record.kernel} {record.size}x"
                      f"{record.size} {record.mapper} [{record.scenario}]: "
                      f"{record.failure}")
    if config.cache_dir:
        hits = sum(1 for r in sweep.records if r.cache_hit)
        sat_runs = sum(1 for r in sweep.records if r.mapper == SAT_MAPIT)
        print(f"\nmapping cache: {hits}/{sat_runs} SAT-MapIt runs served "
              f"from {config.cache_dir}")
    print()
    print(render_headline(sweep))
    for size in config.sizes:
        print()
        print(render_figure6(sweep, size))
    for index, size in enumerate(config.sizes):
        print()
        print(render_mapping_time_table(sweep, size, number=str(index + 1)))
    if len(config.scenarios) > 1:
        for size in config.sizes:
            print()
            print(render_scenario_comparison(sweep, size))
    if args.write_report:
        write_markdown_report(sweep, args.write_report)
        print(f"\nreport written to {args.write_report}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Delegate to the perf harness (same engine as benchmarks/perf_harness.py)."""
    argv = ["--suite", args.suite, "--repeats", str(args.repeats),
            "--out", args.out, "--max-slowdown", str(args.max_slowdown)]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.scale:
        argv += ["--scale"]
    return perf_main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived mapping service (see :mod:`repro.service`)."""
    # Imported here: the service pulls in asyncio machinery no batch
    # sub-command needs.
    from repro.service import JobManager, ServiceLimits, run_service

    limits = ServiceLimits(
        default_timeout=args.default_timeout,
        max_timeout=args.max_timeout,
    )
    manager = JobManager(
        pool_size=args.pool,
        cache_dir=args.cache,
        cache_max_mb=args.cache_max_mb,
        limits=limits,
    )
    return run_service(manager, host=args.host, port=args.port)


def _cmd_show(args: argparse.Namespace) -> int:
    dfg = _load_dfg(args)
    if args.kernel:
        spec = get_kernel_spec(args.kernel)
        print(f"kernel {spec.name} ({spec.suite}): {spec.description}")
        print(spec.source)
    print(dfg)
    print(f"critical path: {MobilitySchedule.build(dfg).length} cycles")
    for size in args.sizes:
        cgra = CGRA.square(size)
        print(f"MII on {size}x{size}: {minimum_initiation_interval(dfg, cgra.num_pes)}")
    mobility = MobilitySchedule.build(dfg)
    print()
    print(mobility)
    if args.ii:
        print()
        print(KernelMobilitySchedule.build(mobility, args.ii))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the full ``satmapit`` argument parser (all sub-commands)."""
    parser = argparse.ArgumentParser(
        prog="satmapit",
        description="SAT-MapIt: SAT-based modulo scheduling mapper for CGRAs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    map_cmd = sub.add_parser("map", help="map one kernel onto a CGRA")
    map_cmd.add_argument("--kernel",
                         choices=all_kernel_names() + scale_kernel_names(),
                         help="benchmark kernel (paper suite plus the "
                              "big-fabric scale kernels)")
    map_cmd.add_argument("--source", help="path to a loop-kernel source file")
    map_cmd.add_argument("--rows", type=int, default=4)
    map_cmd.add_argument("--cols", type=int, default=4)
    map_cmd.add_argument("--registers", type=int, default=4)
    arch = map_cmd.add_mutually_exclusive_group()
    arch.add_argument("--arch-preset", choices=arch_preset_names(),
                      help="named heterogeneous fabric preset "
                           "(overrides --rows/--cols, honours --registers)")
    arch.add_argument("--arch-spec", metavar="FILE",
                      help="JSON architecture spec file (see README.md; "
                           "overrides --rows/--cols/--registers)")
    map_cmd.add_argument("--save-mapping", metavar="PATH",
                         help="write the found mapping as JSON for archiving "
                              "and simulator replay")
    map_cmd.add_argument("--timeout", type=float, default=120.0)
    map_cmd.add_argument("--proof", action="store_true",
                         help="log a DRAT proof for every UNSAT attempt "
                              "to a trace file under TMPDIR; attempt "
                              "digests are recorded in the outcome and "
                              "mapping cache")
    map_cmd.add_argument("--seed", type=int, default=None,
                         help="accepted and ignored: the solver is "
                              "deterministic")
    map_cmd.add_argument("--amo-encoding", choices=[e.value for e in AMOEncoding],
                         default=AMOEncoding.AUTO.value,
                         help="at-most-one encoding (default: auto — "
                              "pairwise for small groups, sequential above)")
    map_cmd.add_argument("--cache", metavar="DIR",
                         help="persistent mapping-cache directory: "
                              "successful runs are stored keyed by "
                              "(DFG, fabric, config, solver version) and "
                              "identical future runs return instantly")
    map_cmd.add_argument("--cache-max-mb", type=float, default=None,
                         metavar="MB",
                         help="size budget for --cache; oldest entries are "
                              "evicted first once the directory exceeds it "
                              "(default: unbounded)")
    map_cmd.add_argument("--seed-heuristic", action="store_true",
                         help="run the budgeted RAMP/PathSeeker pre-pass and "
                              "use its validated mapping as a feasible II "
                              "upper bound (and anytime answer on timeout)")
    map_cmd.add_argument("--seed-budget", type=float, default=2.0,
                         metavar="SECONDS",
                         help="wall budget for --seed-heuristic "
                              "(default: 2.0)")
    map_cmd.add_argument("--profile", action="store_true",
                         help="run under cProfile and print the top "
                              "cumulative functions after the mapping")
    map_cmd.add_argument("--verbose", action="store_true")
    map_cmd.set_defaults(func=_cmd_map)

    sweep_cmd = sub.add_parser("sweep", help="reproduce Figure 6 and Tables I-IV")
    sweep_cmd.add_argument("--kernels", nargs="+", default=all_kernel_names(),
                           choices=all_kernel_names())
    sweep_cmd.add_argument("--sizes", nargs="+", type=int, default=[2, 3, 4, 5])
    sweep_cmd.add_argument("--timeout", type=float, default=60.0,
                           help="per-run timeout in seconds (paper: 4000)")
    sweep_cmd.add_argument("--pathseeker-repeats", type=int, default=3)
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="run the sweep on N parallel worker "
                                "processes (the work-queue farm)")
    sweep_cmd.add_argument("--journal", metavar="DIR",
                           help="keep the farm's work journal in DIR so a "
                                "killed sweep can be picked up again with "
                                "--resume DIR")
    sweep_cmd.add_argument("--resume", metavar="DIR",
                           help="resume the journalled sweep in DIR: "
                                "finished items are served from the "
                                "journal; unfinished items and crashed or "
                                "deadline records are run again (the sweep "
                                "flags must match the original invocation)")
    sweep_cmd.add_argument("--proof", action="store_true",
                           help="log DRAT proofs for UNSAT attempts in the "
                                "SAT-MapIt runs")
    sweep_cmd.add_argument("--seed", type=int, default=None,
                           help="accepted and ignored: the SAT-MapIt solver "
                                "is deterministic, and PathSeeker repeat k "
                                "runs with seed k")
    sweep_cmd.add_argument("--amo-encoding", choices=[e.value for e in AMOEncoding],
                           default=AMOEncoding.AUTO.value,
                           help="at-most-one encoding (default: auto — "
                                "pairwise for small groups, sequential above)")
    sweep_cmd.add_argument("--scenarios", nargs="+", choices=list(SCENARIOS),
                           default=["homogeneous"],
                           help="architecture scenarios to sweep "
                                "(default: homogeneous)")
    sweep_cmd.add_argument("--cache", metavar="DIR",
                           help="persistent mapping-cache directory shared "
                                "by all SAT-MapIt runs of the sweep (reused "
                                "across scenarios and repeat sweeps)")
    sweep_cmd.add_argument("--cache-max-mb", type=float, default=None,
                           metavar="MB",
                           help="size budget for --cache; oldest entries "
                                "evicted first (default: unbounded)")
    sweep_cmd.add_argument("--seed-heuristic", action="store_true",
                           help="heuristic II-seeding pre-pass before every "
                                "SAT-MapIt search")
    sweep_cmd.add_argument("--write-report", metavar="PATH",
                           help="write EXPERIMENTS-style Markdown report to PATH")
    sweep_cmd.set_defaults(func=_cmd_sweep)

    bench_cmd = sub.add_parser(
        "bench",
        help="run the pinned perf suite and write BENCH_solver.json",
    )
    bench_cmd.add_argument("--suite", choices=sorted(BENCH_SUITES),
                           default="default")
    bench_cmd.add_argument("--repeats", type=int, default=3,
                           help="runs per case; the median wall time is kept")
    bench_cmd.add_argument("--out", default=BENCH_DEFAULT_OUTPUT,
                           help="output JSON path "
                                f"(default: {BENCH_DEFAULT_OUTPUT})")
    bench_cmd.add_argument("--baseline", metavar="FILE",
                           help="compare against a previous BENCH_solver.json "
                                "and fail on gross slowdown or II mismatch")
    bench_cmd.add_argument("--scale", action="store_true",
                           help="also run the big-fabric scale panel: "
                                "exact mappings of gsm@4x4, sha2@8x8 and "
                                "sha@16x16 (minutes-scale)")
    bench_cmd.add_argument("--max-slowdown", type=float, default=3.0,
                           help="per-case wall-time ratio failing the "
                                "--baseline gate (default: 3.0)")
    bench_cmd.set_defaults(func=_cmd_bench)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the long-lived mapping service (POST /map over HTTP)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8157,
                           help="TCP port (0 picks a free one; default: 8157)")
    serve_cmd.add_argument("--pool", type=int, default=2,
                           help="cache-miss solves run concurrently, each "
                                "in its own worker process; cache hits are "
                                "answered by the server (default: 2)")
    serve_cmd.add_argument("--cache", metavar="DIR",
                           default=".service-cache",
                           help="mapping-cache root; each tenant gets its "
                                "own namespace subdirectory "
                                "(default: .service-cache)")
    serve_cmd.add_argument("--cache-max-mb", type=float, default=None,
                           metavar="MB",
                           help="per-tenant cache size budget; oldest "
                                "entries evicted first (default: unbounded)")
    serve_cmd.add_argument("--default-timeout", type=float, default=60.0,
                           metavar="SECONDS",
                           help="wall budget for requests that set none "
                                "(default: 60)")
    serve_cmd.add_argument("--max-timeout", type=float, default=600.0,
                           metavar="SECONDS",
                           help="hard ceiling on any request's timeout "
                                "(default: 600)")
    serve_cmd.set_defaults(func=_cmd_serve)

    show_cmd = sub.add_parser("show", help="inspect a kernel DFG and its schedules")
    show_cmd.add_argument("--kernel",
                          choices=all_kernel_names() + scale_kernel_names())
    show_cmd.add_argument("--source", help="path to a loop-kernel source file")
    show_cmd.add_argument("--sizes", nargs="+", type=int, default=[2, 3, 4, 5])
    show_cmd.add_argument("--ii", type=int, help="also print the KMS for this II")
    show_cmd.set_defaults(func=_cmd_show)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: parse ``argv`` and dispatch to the sub-command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``); the flush at exit must not raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
