"""Sweep runner: kernels x CGRA sizes x mappers.

The paper's evaluation maps eleven loop kernels onto square meshes from 2x2 to
5x5 with three tools (SAT-MapIt, RAMP, PathSeeker) under a 4000-second timeout
and an II cap of 50, repeating PathSeeker ten times because it is randomised.
This module reproduces that protocol with configurable (smaller) budgets so
the full sweep stays tractable on a laptop and inside the test-suite.

``run_sweep(jobs=N)`` distributes the (kernel, size, mapper) runs over the
work-queue farm (:mod:`repro.farm`): every run becomes a journalled work
item handed to worker processes under leases with deadlines.  Each item
runs once and ends in one record; a crashed or reaped worker costs its
item a ``crashed`` or ``deadline`` record, not the sweep, and a SIGKILLed
sweep can be resumed (``journal_dir=`` / ``resume=True``) without
re-solving finished items.  Runs are independent and each mapper is
deterministic for a fixed configuration, so a parallel (or resumed) sweep
produces record-for-record the same results as the serial one, in the
same order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.baselines import BaselineConfig, PathSeekerMapper, RampMapper
from repro.cgra.architecture import CGRA
from repro.cgra.presets import mem_edge, mul_sparse
from repro.core.mapper import MapperConfig, MappingOutcome, SatMapItMapper
from repro.dfg.graph import DFG
from repro.kernels import all_kernel_names, get_kernel
from repro.sat.encodings import AMOEncoding

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.farm.journal import WorkItem
    from repro.farm.leases import FarmStats

SAT_MAPIT = "SAT-MapIt"
RAMP = "RAMP"
PATHSEEKER = "PathSeeker"

#: The homogeneous fabric of the paper's evaluation.
HOMOGENEOUS = "homogeneous"
#: Memory ports restricted to the boundary ring (see repro.cgra.presets).
MEM_EDGE = "mem_edge"
#: Multipliers/dividers on a checkerboard subset.
MUL_SPARSE = "mul_sparse"

SCENARIOS = (HOMOGENEOUS, MEM_EDGE, MUL_SPARSE)

#: Statuses of a farm item that ended without one of the mapper's own
#: verdicts (``mapped``, ``failed``, ``timeout``); ``RunRecord.failure``
#: says what happened.
INFEASIBLE = "infeasible"  # the mapper raised MappingError
CRASHED = "crashed"  # the worker died: killed by a signal or exited
DEADLINE = "deadline"  # the worker was reaped at the item's deadline
ERROR = "error"  # any other exception
FAILURE_STATUSES = (INFEASIBLE, CRASHED, DEADLINE, ERROR)


def build_fabric(scenario: str, size: int, registers_per_pe: int = 4) -> CGRA:
    """Instantiate the fabric for one (scenario, mesh size) pair."""
    if scenario == HOMOGENEOUS:
        return CGRA.square(size, registers_per_pe=registers_per_pe)
    if scenario == MEM_EDGE:
        return mem_edge(size, registers_per_pe=registers_per_pe)
    if scenario == MUL_SPARSE:
        return mul_sparse(size, registers_per_pe=registers_per_pe)
    raise ValueError(
        f"unknown architecture scenario {scenario!r}; available: {', '.join(SCENARIOS)}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol of one sweep (a scaled-down version of the paper's setup)."""

    kernels: tuple[str, ...] = tuple(all_kernel_names())
    sizes: tuple[int, ...] = (2, 3, 4, 5)
    mappers: tuple[str, ...] = (SAT_MAPIT, RAMP, PATHSEEKER)
    #: Wall-clock budget per (kernel, size, mapper) run, in seconds.  The
    #: paper uses 4000 s; the default here keeps a full sweep laptop-sized.
    timeout: float = 60.0
    #: II cap: runs reaching this II without success are reported as failed
    #: (the paper's "black mark").
    max_ii: int = 50
    registers_per_pe: int = 4
    #: PathSeeker is randomised; the paper repeats it 10 times and keeps the
    #: best result.
    pathseeker_repeats: int = 3
    #: At-most-one encoding used by the SAT-MapIt CNF construction.
    amo_encoding: AMOEncoding = AMOEncoding.AUTO
    #: Random seed forwarded to the SAT-MapIt configuration, whose
    #: deterministic solver ignores it.
    seed: int | None = None
    #: Architecture scenarios to sweep.  ``"homogeneous"`` is the paper's
    #: setup; adding ``"mem_edge"`` / ``"mul_sparse"`` re-runs the whole
    #: protocol on the corresponding heterogeneous fabric so the II cost of
    #: capability constraints can be tabulated per kernel.
    scenarios: tuple[str, ...] = (HOMOGENEOUS,)
    #: Persistent mapping-cache directory shared by every SAT-MapIt run of
    #: the sweep (``None`` disables caching).  Because the cache key ignores
    #: execution details, re-sweeping the same kernels — or sweeping extra
    #: scenarios over an already-cached fabric — reuses earlier results.
    cache_dir: str | None = None
    #: Size budget (MB) for ``cache_dir``; oldest entries evicted first.
    cache_max_mb: float | None = None
    #: Run the budgeted heuristic seeding pre-pass before every SAT-MapIt
    #: search (see :mod:`repro.search.seed`).
    seed_heuristic: bool = False
    #: Log DRAT proofs for UNSAT attempts in the SAT-MapIt runs.
    proof: bool = False

    def __post_init__(self) -> None:
        # Reject an out-of-range budget up front, not per work item.
        MapperConfig(timeout=self.timeout, max_ii=self.max_ii)


@dataclass
class RunRecord:
    """Result of one (kernel, size, mapper) mapping run."""

    kernel: str
    size: int
    mapper: str
    status: str  # "mapped", "timeout", "failed", or a FAILURE_STATUSES entry
    ii: int | None
    mapping_time: float
    minimum_ii: int
    attempts: int
    num_nodes: int
    #: Architecture scenario the run used (``"homogeneous"`` by default).
    scenario: str = HOMOGENEOUS
    #: Solver reuse (SAT-MapIt only; zero for the heuristics): solve calls
    #: served by an attempt's solver without re-encoding the base formula
    #: (register-allocation retries).
    incremental_resolves: int = 0
    #: Flat-core solver counters (SAT-MapIt only): implications served by
    #: the binary/ternary implication lists, watch entries dismissed by
    #: their blocker literal, and the peak flat clause-store footprint.
    binary_propagations: int = 0
    blocker_skips: int = 0
    arena_bytes: int = 0
    #: Batched-emission metrics: bulk flushes the encoder pushed into the
    #: solver and exact duplicate clauses its hashed dedup dropped.
    emission_batches: int = 0
    duplicate_clauses_dropped: int = 0
    #: Whether the persistent mapping cache served the result outright.
    cache_hit: bool = False
    #: Heuristic-seeding metrics (``seed_heuristic=True`` SAT-MapIt runs):
    #: the pre-pass II (None when no feasible heuristic mapping was found),
    #: whether the seed mapping ended up as the returned answer, and the
    #: wall-clock seconds the pre-pass spent.
    seed_ii: int | None = None
    seed_used: bool = False
    seed_time: float = 0.0
    #: Farm provenance (parallel sweeps only): whether the record was
    #: served from a resumed journal without re-solving, and what ended an
    #: item with one of the FAILURE_STATUSES (the exception, signal, exit
    #: code or deadline).
    resumed: bool = False
    failure: str = ""

    @property
    def succeeded(self) -> bool:
        return self.status == "mapped"


@dataclass
class SweepResult:
    """All records of a sweep plus convenient lookups."""

    config: ExperimentConfig
    records: list[RunRecord] = field(default_factory=list)
    #: Farm counters (``None`` for serial sweeps): completions, resumes,
    #: resume re-runs, lease expiries, worker crashes.
    farm: "FarmStats | None" = None

    def record(
        self, kernel: str, size: int, mapper: str, scenario: str = HOMOGENEOUS
    ) -> RunRecord | None:
        for entry in self.records:
            if (
                entry.kernel == kernel
                and entry.size == size
                and entry.mapper == mapper
                and entry.scenario == scenario
            ):
                return entry
        return None

    def best_soa(
        self, kernel: str, size: int, scenario: str = HOMOGENEOUS
    ) -> RunRecord | None:
        """Best-of(RAMP, PathSeeker) for one (kernel, size) — paper Figure 6."""
        candidates = [
            entry
            for entry in self.records
            if entry.kernel == kernel
            and entry.size == size
            and entry.mapper != SAT_MAPIT
            and entry.scenario == scenario
        ]
        if not candidates:
            return None
        mapped = [entry for entry in candidates if entry.succeeded]
        if mapped:
            return min(mapped, key=lambda entry: (entry.ii, entry.mapping_time))
        return min(candidates, key=lambda entry: entry.mapping_time)

    def pairs(self) -> list[tuple[str, int]]:
        """All (kernel, size) pairs present in the sweep."""
        seen: list[tuple[str, int]] = []
        for entry in self.records:
            key = (entry.kernel, entry.size)
            if key not in seen:
                seen.append(key)
        return seen


def build_mapper(name: str, config: ExperimentConfig, seed: int | None = None):
    """Instantiate a mapper by display name with the sweep's budgets."""
    if name == SAT_MAPIT:
        return SatMapItMapper(
            MapperConfig(
                timeout=config.timeout,
                max_ii=config.max_ii,
                # Keep single hard instances from eating the whole budget so
                # the iterative search can keep climbing the II (anytime
                # behaviour on the largest kernels).
                attempt_time_limit=max(5.0, config.timeout / 5.0),
                amo_encoding=config.amo_encoding,
                random_seed=config.seed,
                cache_dir=config.cache_dir,
                cache_max_mb=config.cache_max_mb,
                seed_heuristic=config.seed_heuristic,
                proof=config.proof,
            )
        )
    if name == RAMP:
        return RampMapper(
            BaselineConfig(timeout=config.timeout, max_ii=config.max_ii, random_seed=7)
        )
    if name == PATHSEEKER:
        return PathSeekerMapper(
            BaselineConfig(
                timeout=config.timeout, max_ii=config.max_ii,
                random_seed=1 if seed is None else seed,
            )
        )
    raise ValueError(f"unknown mapper {name!r}")


def run_single(
    kernel: str | DFG,
    size: int,
    mapper_name: str,
    config: ExperimentConfig | None = None,
    scenario: str = HOMOGENEOUS,
) -> RunRecord:
    """Map one kernel on one fabric with one mapper and record the result."""
    config = config or ExperimentConfig()
    dfg = get_kernel(kernel) if isinstance(kernel, str) else kernel
    cgra = build_fabric(scenario, size, config.registers_per_pe)

    if mapper_name == PATHSEEKER and config.pathseeker_repeats > 1:
        outcome = _best_pathseeker_outcome(dfg, cgra, config)
    else:
        outcome = build_mapper(mapper_name, config).map(dfg, cgra)

    return RunRecord(
        kernel=dfg.name,
        size=size,
        mapper=mapper_name,
        status=outcome.final_status,
        ii=outcome.ii,
        mapping_time=outcome.total_time,
        minimum_ii=outcome.minimum_ii,
        attempts=len(outcome.attempts),
        num_nodes=dfg.num_nodes,
        scenario=scenario,
        incremental_resolves=outcome.incremental_resolves,
        binary_propagations=getattr(outcome, "binary_propagations", 0),
        blocker_skips=getattr(outcome, "blocker_skips", 0),
        arena_bytes=getattr(outcome, "arena_bytes", 0),
        emission_batches=getattr(outcome, "emission_batches", 0),
        duplicate_clauses_dropped=getattr(outcome, "duplicate_clauses_dropped", 0),
        cache_hit=getattr(outcome, "cache_hit", False),
        seed_ii=getattr(outcome, "seed_ii", None),
        seed_used=getattr(outcome, "seed_used", False),
        seed_time=getattr(outcome, "seed_time", 0.0),
    )


def _best_pathseeker_outcome(
    dfg: DFG, cgra: CGRA, config: ExperimentConfig
) -> MappingOutcome:
    """Repeat the randomised mapper and keep the best result (paper protocol)."""
    best: MappingOutcome | None = None
    total_time = 0.0
    for repeat in range(config.pathseeker_repeats):
        mapper = build_mapper(PATHSEEKER, config, seed=repeat + 1)
        outcome = mapper.map(dfg, cgra)
        total_time += outcome.total_time
        if best is None or _outcome_rank(outcome) < _outcome_rank(best):
            best = outcome
    assert best is not None
    best.total_time = total_time / config.pathseeker_repeats
    return best


def _outcome_rank(outcome: MappingOutcome) -> tuple[int, float]:
    """Ordering key: mapped (lowest II) first, then fastest."""
    if outcome.success and outcome.ii is not None:
        return (outcome.ii, outcome.total_time)
    return (10_000, outcome.total_time)


def _print_record(record: RunRecord) -> None:
    ii = record.ii if record.ii is not None else "-"
    scenario_tag = (
        "" if record.scenario == HOMOGENEOUS else f" [{record.scenario}]"
    )
    cache_tag = " [cache]" if record.cache_hit else ""
    resume_tag = " [resumed]" if record.resumed else ""
    print(
        f"  {record.kernel:13s} {record.size}x{record.size} "
        f"{record.mapper:10s} II={ii} "
        f"({record.status}, {record.mapping_time:.2f}s)"
        f"{scenario_tag}{cache_tag}{resume_tag}",
        flush=True,
    )


def run_sweep(
    config: ExperimentConfig | None = None,
    progress: bool = False,
    jobs: int = 1,
    journal_dir: str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run the full (kernels x sizes x mappers) sweep.

    ``jobs`` > 1 distributes the independent runs over the work-queue farm
    (:mod:`repro.farm`); the records come back in the same deterministic
    order as the serial sweep.  ``journal_dir`` keeps the farm's work
    journal in a named directory so a killed sweep can be picked up again
    with ``resume=True`` (finished items are served from the journal, not
    re-solved; ``crashed`` and ``deadline`` records run again); without it
    the journal lives in a throwaway temp directory.
    """
    config = config or ExperimentConfig()
    if jobs > 1 or journal_dir is not None or resume:
        return _run_farm_sweep(config, progress, max(1, jobs), journal_dir, resume)

    result = SweepResult(config=config)
    for scenario in (config.scenarios or (HOMOGENEOUS,)):
        for kernel in config.kernels:
            for size in config.sizes:
                for mapper_name in config.mappers:
                    record = run_single(kernel, size, mapper_name, config, scenario)
                    result.records.append(record)
                    if progress:
                        _print_record(record)
    return result


def _run_farm_sweep(
    config: ExperimentConfig,
    progress: bool,
    jobs: int,
    journal_dir: str | None,
    resume: bool,
) -> SweepResult:
    """Run the sweep through the leased work-queue farm."""
    from repro.farm.scheduler import FarmConfig, run_farm

    report = (lambda record: _print_record(RunRecord(**record))) if progress else None
    with contextlib.ExitStack() as stack:
        if journal_dir is None:
            journal_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-farm-")
            )
        farm = FarmConfig(jobs=jobs, journal_dir=journal_dir, resume=resume)
        outcome = run_farm(config, farm, report=report)

    result = SweepResult(config=config, farm=outcome.stats)
    for item in outcome.items:
        record = outcome.records[item.id]
        result.records.append(RunRecord(**{
            name: value for name, value in record.items() if name in _RECORD_FIELDS
        }))
    return result


#: RunRecord's fields: a resumed journal may hold records written when the
#: record had fields it no longer has, and those are dropped.
_RECORD_FIELDS = frozenset(f.name for f in dataclasses.fields(RunRecord))


def failure_record(item: "WorkItem", status: str, failure: str) -> RunRecord:
    """The record of a farm item that ended in one of the FAILURE_STATUSES."""
    return RunRecord(
        kernel=item.kernel,
        size=item.size,
        mapper=item.mapper,
        status=status,
        ii=None,
        mapping_time=0.0,
        minimum_ii=0,
        attempts=0,
        num_nodes=0,
        scenario=item.scenario,
        failure=failure,
    )
