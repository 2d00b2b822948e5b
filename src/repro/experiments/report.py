"""EXPERIMENTS.md generation.

Renders a complete Markdown report for a sweep: the Figure-6 II comparison
per mesh size, the Tables I–IV mapping times, the Section-V headline numbers
and the paper-vs-measured commentary.  The repository's committed
``benchmarks/EXPERIMENTS_generated.md`` is produced by this module with
``ReportOptions(timings=False)``, which leaves out the mapping-time tables
so the file is byte-stable across re-runs; :func:`render_timing_report`
renders those tables on their own for an uncommitted artefact (see
``benchmarks/conftest.py`` and ``python -m repro.cli sweep --write-report``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import (
    FAILURE_STATUSES,
    HOMOGENEOUS,
    SAT_MAPIT,
    SweepResult,
)
from repro.experiments.tables import (
    figure6_rows,
    headline_winrate,
    mapping_time_rows,
    never_worse,
    scenario_rows,
)

_TABLE_NUMBERS = {2: "I", 3: "II", 4: "III", 5: "IV"}

_PAPER_EXPECTATIONS = """\
The paper's evaluation (Section V) makes three claims, restated here as the
shapes this reproduction checks:

1. **SAT-MapIt achieves better IIs** (Figure 6): its II is never worse than
   the best of RAMP/PathSeeker, strictly better in a substantial fraction of
   the 44 (benchmark, mesh) pairs (47.72 % in the paper), including cases
   (``patricia``, ``backprop`` on 2x2) where the heuristics find no mapping
   at all.
2. **SAT-MapIt uses tight resources better**: the advantage is concentrated
   on the smallest (2x2) fabric.
3. **SAT-MapIt is faster when runtimes are high** (Tables I–IV): it is often
   slower on the easy cases (sub-second heuristic runs) but dramatically
   faster on the cases where the heuristics blow up or time out.

Absolute IIs and times differ from the paper because the DFGs are produced by
this repository's own front-end (not the authors' LLVM pass), the SAT backend
is the repository's own CDCL solver (a native C core, not Z3), and the
heuristics are re-implementations rather than the original binaries (see
DESIGN.md).
"""


@dataclass(frozen=True)
class ReportOptions:
    """Rendering options for the Markdown report."""

    title: str = "EXPERIMENTS — SAT-MapIt reproduction"
    include_expectations: bool = True
    #: Include the mapping-time tables (Tables I–IV).  Off for committed
    #: reports, which must not change when only wall-clock time does.
    timings: bool = True


def solver_reuse_totals(sweep: SweepResult) -> int:
    """Solve calls served by an attempt's solver without re-encoding the
    base formula (register-allocation retries), over the SAT-MapIt runs."""
    return sum(
        entry.incremental_resolves
        for entry in sweep.records if entry.mapper == SAT_MAPIT
    )


def flat_core_totals(sweep: SweepResult) -> tuple[int, int, int, int, int]:
    """Aggregate flat-arena solver-core counters over the SAT-MapIt runs.

    Returns ``(binary_propagations, blocker_skips, peak_arena_bytes,
    emission_batches, duplicate_clauses_dropped)``.
    """
    records = [entry for entry in sweep.records if entry.mapper == SAT_MAPIT]
    return (
        sum(entry.binary_propagations for entry in records),
        sum(entry.blocker_skips for entry in records),
        max((entry.arena_bytes for entry in records), default=0),
        sum(entry.emission_batches for entry in records),
        sum(entry.duplicate_clauses_dropped for entry in records),
    )


def _markdown_figure6(sweep: SweepResult, size: int) -> list[str]:
    lines = [
        f"### Figure 6 — achieved II on the {size}x{size} CGRA",
        "",
        "| benchmark | best of RAMP/PathSeeker | SAT-MapIt | SAT-MapIt wins |",
        "|---|---|---|---|",
    ]
    for row in figure6_rows(sweep, size):
        soa = row.soa_ii if row.soa_ii is not None else f"✗ ({row.soa_status})"
        sat = row.satmapit_ii if row.satmapit_ii is not None else f"✗ ({row.satmapit_status})"
        verdict = "yes" if row.satmapit_wins else ("tie" if row.tie else "no")
        lines.append(f"| {row.kernel} | {soa} | {sat} | {verdict} |")
    lines.append("")
    return lines


def _markdown_times(sweep: SweepResult, size: int) -> list[str]:
    number = _TABLE_NUMBERS.get(size, "")
    lines = [
        f"### Table {number} — mapping time (seconds) on the {size}x{size} CGRA",
        "",
        "| benchmark | RAMP/PathSeeker (best) | SAT-MapIt | Δ |",
        "|---|---|---|---|",
    ]
    for row in mapping_time_rows(sweep, size):
        lines.append(
            f"| {row.kernel} | {row.soa_time:.2f} | {row.satmapit_time:.2f} | "
            f"{row.delta:+.2f} |"
        )
    lines.append("")
    return lines


def _markdown_scenarios(sweep: SweepResult, size: int) -> list[str]:
    scenarios = sweep.config.scenarios or (HOMOGENEOUS,)
    lines = [
        f"### Heterogeneous fabrics — SAT-MapIt II on the {size}x{size} mesh",
        "",
        "Capability-constrained fabrics (memory ports only on the boundary,"
        " sparse multipliers) versus the paper's homogeneous array.  ΔII is"
        " the capability cost of the first heterogeneous scenario.",
        "",
        "| benchmark | " + " | ".join(scenarios) + " | ΔII |",
        "|---" * (len(scenarios) + 2) + "|",
    ]
    for row in scenario_rows(sweep, size):
        cells = []
        for _scenario, ii, status in row.results:
            cells.append(str(ii) if ii is not None else f"✗ ({status})")
        penalty = row.ii_penalty
        delta = f"{penalty:+d}" if penalty is not None else "—"
        lines.append(f"| {row.kernel} | " + " | ".join(cells) + f" | {delta} |")
    lines.append("")
    return lines


def cache_totals(sweep: SweepResult) -> tuple[int, int]:
    """``(cache_hits, cache_misses)`` over the SAT-MapIt runs; misses count
    only the runs that could have hit (i.e. all SAT-MapIt runs when a cache
    was configured)."""
    records = [entry for entry in sweep.records if entry.mapper == SAT_MAPIT]
    hits = sum(1 for entry in records if entry.cache_hit)
    misses = (
        len(records) - hits if sweep.config.cache_dir is not None else 0
    )
    return hits, misses


def seed_totals(sweep: SweepResult) -> tuple[int, int, int, float]:
    """Aggregate heuristic-seeding metrics over the SAT-MapIt runs.

    Returns ``(seeded_runs, seeds_found, seeds_used, seed_seconds)``: runs
    that ran the pre-pass, runs where it produced a validated mapping, runs
    whose *returned* mapping is the seed itself (anytime fallback or
    MII-optimal seed), and total pre-pass wall-clock.
    """
    records = [entry for entry in sweep.records if entry.mapper == SAT_MAPIT]
    seeded = sum(1 for entry in records if sweep.config.seed_heuristic)
    found = sum(1 for entry in records if entry.seed_ii is not None)
    used = sum(1 for entry in records if entry.seed_used)
    seconds = sum(entry.seed_time for entry in records)
    return seeded, found, used, seconds


def render_markdown_report(sweep: SweepResult, options: ReportOptions | None = None) -> str:
    """Render the full Markdown report for one sweep."""
    options = options or ReportOptions()
    config = sweep.config
    wins, total, fraction = headline_winrate(sweep)
    resolves = solver_reuse_totals(sweep)
    bin_props, blocker_skips, arena_bytes, batches, dups = flat_core_totals(sweep)
    cache_hits, cache_misses = cache_totals(sweep)
    lines = [f"# {options.title}", ""]
    if options.include_expectations:
        lines.extend([_PAPER_EXPECTATIONS, ""])
    lines.extend(
        [
            "## Protocol",
            "",
            f"* kernels: {', '.join(config.kernels)}",
            f"* mesh sizes: {', '.join(f'{s}x{s}' for s in config.sizes)}",
            f"* per-run timeout: {config.timeout:.0f} s (paper: 4000 s), "
            f"II cap: {config.max_ii}",
            f"* registers per PE: {config.registers_per_pe}, 4-neighbour mesh",
            f"* architecture scenarios: "
            f"{', '.join(config.scenarios or (HOMOGENEOUS,))}",
            f"* mapping cache: "
            f"{config.cache_dir if config.cache_dir else 'off'}",
            f"* heuristic II seeding: "
            f"{'on' if config.seed_heuristic else 'off'}",
            f"* PathSeeker repeats per case: {config.pathseeker_repeats} (paper: 10)",
            "",
            "## Headline (paper Section V)",
            "",
            f"* SAT-MapIt strictly better (lower II or only valid mapping): "
            f"**{wins}/{total} = {fraction:.2%}** (paper: 47.72 %)",
            f"* SAT-MapIt never worse than the best heuristic: **{never_worse(sweep)}**",
            "",
            "## Register-allocation retries",
            "",
            f"* register-allocation retries served without re-encoding: "
            f"**{resolves}**",
            "",
            "## Flat-arena solver core",
            "",
            f"* implications served by binary/ternary implication lists: "
            f"**{bin_props}**",
            f"* watch entries dismissed by blocker literals: "
            f"**{blocker_skips}**",
            f"* peak clause-store footprint: **{arena_bytes}** bytes",
            f"* batched emission flushes: **{batches}** "
            f"(duplicate clauses dropped at the emitter: **{dups}**)",
            "",
            "## Mapping cache",
            "",
            f"* cache: **{cache_hits}** hit(s), **{cache_misses}** miss(es)"
            + ("" if config.cache_dir else " (caching off)"),
            "",
        ]
    )
    if sweep.farm is not None:
        farm = sweep.farm
        failures = [r for r in sweep.records if r.status in FAILURE_STATUSES]
        lines.extend(
            [
                "## Work-queue farm",
                "",
                f"* items completed this run / resumed from the journal: "
                f"**{farm.completed}** / **{farm.skipped}** of "
                f"**{farm.items}**",
                f"* crashed or deadline records run again by the resume: "
                f"**{farm.retries}**",
                f"* worker crashes / deadlines expired: "
                f"**{farm.worker_crashes}** / **{farm.deadlines_expired}**",
                f"* records without a mapper verdict: **{len(failures)}**",
                *(
                    f"  * {r.kernel} {r.size}x{r.size} {r.mapper} "
                    f"[{r.scenario}] {r.status}: {r.failure}"
                    for r in failures
                ),
                "",
            ]
        )
    if config.seed_heuristic:
        seeded, found, used, seconds = seed_totals(sweep)
        lines.extend(
            [
                "## Heuristic seeding",
                "",
                f"* runs with the RAMP/PathSeeker seeding pre-pass: "
                f"**{seeded}**",
                f"* pre-passes yielding a validated seed mapping: "
                f"**{found}** (pre-pass wall-clock: **{seconds:.2f} s**)",
                f"* runs answered by the seed mapping itself "
                f"(MII-optimal seed or anytime fallback): **{used}**",
                "",
            ]
        )
    for size in config.sizes:
        lines.extend(_markdown_figure6(sweep, size))
    if options.timings:
        for size in config.sizes:
            if size in _TABLE_NUMBERS:
                lines.extend(_markdown_times(sweep, size))
    if len(config.scenarios or ()) > 1:
        for size in config.sizes:
            lines.extend(_markdown_scenarios(sweep, size))
    return "\n".join(lines) + "\n"


def render_timing_report(sweep: SweepResult) -> str:
    """The wall-clock tables (Tables I–IV) of a sweep on their own."""
    lines = [
        "# EXPERIMENTS — mapping times",
        "",
        "Wall-clock figures of one run; they change from run to run, so the",
        "committed report leaves them out.",
        "",
    ]
    for size in sweep.config.sizes:
        if size in _TABLE_NUMBERS:
            lines.extend(_markdown_times(sweep, size))
    return "\n".join(lines) + "\n"


def write_markdown_report(
    sweep: SweepResult, path: str, options: ReportOptions | None = None
) -> None:
    """Write the Markdown report to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(render_markdown_report(sweep, options))
