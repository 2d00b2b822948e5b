"""SAT-MapIt iterative mapping driver (paper Figure 3).

For a candidate II the driver builds the KMS, encodes the mapping problem,
calls the SAT backend, and — on SAT — runs register allocation.  If the
formula is UNSAT or the colouring fails, the search moves to another II,
until a mapping is found or a bound (maximum II, wall-clock timeout) is
hit.  *Which* II is tried next is a pluggable policy: ``map()`` delegates
the walk to a :mod:`repro.search` strategy (the paper's sequential ladder
by default; a process-parallel portfolio on request) and can short-circuit
the whole search through the persistent mapping cache
(``MapperConfig.cache_dir``).  ``solve()`` is the search half alone, for
callers that have looked the cache up themselves: the mapping service
answers hits from :meth:`MappingCache.lookup_key` and hands only misses to
a worker process, which stores what ``solve()`` finds.

Each (II, slack) attempt is encoded into a fresh solver backend, as the
paper builds a new formula for every II, and the backend is dropped when the
attempt ends.  The attempt's constraint group is guarded by a selector
literal and solved under the assumption that the selector is true.
Register-allocation rejections stay inside the same attempt — one blocking
clause is added and the backend re-solves with all learned clauses,
activities and phases intact, with zero re-encoded base clauses (the
per-attempt stats prove it).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import check_kernel_fits, effective_minimum_ii
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mapping import Mapping
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.core.regalloc import RegisterAllocation, allocate_registers
from repro.dfg.analysis import critical_path_length
from repro.dfg.graph import DFG
from repro.exceptions import MappingError
from repro.sat.backend import SolverBackend, create_backend
from repro.sat.encodings import AMOEncoding

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.search.cache import MappingCache


@dataclass(frozen=True)
class MapperConfig:
    """Knobs of the SAT-MapIt mapping loop.

    The defaults follow the paper's experimental setup: mobility windows from
    the critical-path schedule (with a little slack retried on UNSAT),
    dependencies delivered through the neighbourhood register files (the
    paper's Equation-4 path) with register allocation as a separate post-pass,
    and an II cap of 50 (the paper terminates a run once the current II
    reaches 50 without success).  Two stricter variants are available for the
    ablation study: ``enforce_output_register=True`` adds the Equation-5
    output-register survival clauses, and ``max_iteration_span=1`` reproduces
    the paper's "at most one iteration apart" literal-pair restriction.
    """

    max_ii: int = 50
    timeout: float | None = None
    #: Wall-clock budget for a single (II, slack) SAT attempt.  An attempt
    #: that exceeds it is treated as inconclusive and the search moves on to
    #: the next slack level / II, which turns the mapper into an anytime tool
    #: on very large instances (the II found may then exceed the true
    #: optimum, but a mapping is still produced within the global timeout).
    attempt_time_limit: float | None = None
    schedule_slack: int = 0
    #: Extra schedule slots tried (in addition to ``schedule_slack``) before
    #: giving up on a given II.  Slack widens mobility windows and can make an
    #: otherwise infeasible II feasible at the cost of a larger encoding.
    max_extra_slack: int = 1
    #: Conflict budget for the extra-slack attempts.  Their formulas are
    #: larger and occasionally much harder to refute; bounding them keeps the
    #: iterative loop moving (an inconclusive attempt simply falls through to
    #: the next II).
    slack_conflict_limit: int | None = 5000
    #: How many alternative SAT models to request at the same II when
    #: register allocation rejects a mapping (each retry adds a blocking
    #: clause over the overloaded PE's placements).
    regalloc_retries: int = 3
    #: At-most-one encoding; ``AUTO`` (pairwise below
    #: ``AUTO_PAIRWISE_LIMIT`` literals, sequential above) propagates
    #: several times fewer literals per conflict on the flat-core's
    #: implication lists than a fixed sequential counter.
    amo_encoding: AMOEncoding = AMOEncoding.AUTO
    #: Two-phase encoding escalation (``AUTO`` encoding, instrumented
    #: backends only):
    #: each (II, slack) attempt is first *probed* with the compact
    #: sequential encoding under this conflict budget — easy attempts
    #: conclude without ever paying the quadratic pairwise emission; an
    #: inconclusive probe drops its solver and re-encodes the same attempt
    #: with the propagation-optimal ``AUTO`` form in a fresh one.  ``None``
    #: disables the probe.
    amo_probe_conflicts: int | None = 600
    #: Solver backend name (see :mod:`repro.sat.backend`); ``"cdcl"`` is the
    #: production engine, ``"dpll"`` the slow reference oracle.
    backend: str = "cdcl"
    #: Emit DRAT proofs (see :mod:`repro.sat.drat`): each attempt's CDCL
    #: solver logs learned clauses/deletions to its own trace file under
    #: the system temp dir (``TMPDIR``), kept only when the attempt ends
    #: UNSAT.  UNSAT attempts then record a proof digest and
    #: ``MappingOutcome.proof_path`` names the latest trace.  Only ``"cdcl"``
    #: writes proofs; any other backend is rejected when the config is
    #: built.
    proof: bool = False
    max_iteration_span: int | None = None
    enforce_output_register: bool = False
    symmetry_breaking: bool = True
    neighbour_register_file_access: bool = True
    run_register_allocation: bool = True
    solver_conflict_limit: int | None = None
    random_seed: int | None = None
    verbose: bool = False
    #: II-search strategy (see :mod:`repro.search`): ``"ladder"`` is the
    #: paper's sequential climb, and ``"portfolio"`` races several IIs and
    #: solver-configuration variants across worker processes, cancelling
    #: the losers on the first win at the frontier.
    search: str = "ladder"
    #: Worker processes the portfolio strategy may keep in flight.
    search_jobs: int = 2
    #: Solver-configuration variants the portfolio races at each II (names
    #: from :data:`repro.search.portfolio.PORTFOLIO_VARIANTS`; the strategy
    #: trims the line-up to the machine's core count, keeping the order).
    portfolio_variants: tuple[str, ...] = ("no-probe", "default", "pairwise")
    #: Directory of the persistent mapping cache
    #: (:class:`repro.search.cache.MappingCache`); ``None`` disables
    #: caching.  Successful runs are stored keyed by a canonical hash of
    #: (DFG, CGRA spec, semantic config, solver version) and later runs of
    #: the same problem return instantly with ``MappingOutcome.cache_hit``.
    cache_dir: str | None = None
    #: Size budget for the mapping cache directory, in MiB; when the
    #: directory outgrows it after a write, the oldest entries are evicted
    #: first (``CacheStats.evicted``).  ``None`` means unbounded.
    cache_max_mb: float | None = None
    #: Subdirectory of ``cache_dir`` this run reads and writes
    #: (``cache_dir/<namespace>``); ``None`` uses ``cache_dir`` itself.
    #: The mapping service keys this by tenant so tenants share nothing on
    #: disk — the cache *key* is identical across namespaces (the
    #: namespace is a placement concern, not part of the problem), the
    #: directories are disjoint.  Restricted to ``[A-Za-z0-9._-]`` so a
    #: request can never traverse outside the cache root.
    cache_namespace: str | None = None
    #: Run the heuristic mappers as a budgeted pre-pass before any SAT work
    #: (see :mod:`repro.search.seed`).  A validated heuristic mapping gives
    #: every strategy a feasible upper bound — the ladder stops below it,
    #: the portfolio only races IIs below it — and is the anytime answer
    #: when the SAT search times out.  Like the search strategy, seeding
    #: never changes the II of a completed run, only how fast it is reached
    #: (CI-gated), so it is excluded from the cache key.
    seed_heuristic: bool = False
    #: Wall-clock budget (seconds) for the whole seeding pre-pass.
    seed_time_budget: float = 2.0
    #: Heuristic mappers the pre-pass runs, in order (names from
    #: :data:`repro.baselines.HEURISTIC_MAPPERS`); later mappers only
    #: search below the best II already found.
    seed_mappers: tuple[str, ...] = ("ramp", "pathseeker")

    def __post_init__(self) -> None:
        if self.proof and self.backend != "cdcl":
            raise ValueError(
                f"proof logging needs the 'cdcl' backend; backend "
                f"{self.backend!r} cannot write DRAT proofs"
            )
        # A value below these bounds would not fail: the search would walk
        # no II at all, or burn attempts it can never conclude, and report
        # a plain failure (or raise halfway through ``map()``).
        for name, low in (("max_ii", 1), ("schedule_slack", 0),
                          ("max_extra_slack", 0), ("regalloc_retries", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(
                    f"MapperConfig.{name} must be >= {low}, got {value}"
                )
        # ``timeout=0`` stays valid: it is the anytime probe that reports a
        # timeout after zero attempts.
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(
                f"MapperConfig.timeout must be None or >= 0, got {self.timeout}"
            )
        if self.attempt_time_limit is not None and self.attempt_time_limit <= 0:
            raise ValueError(
                f"MapperConfig.attempt_time_limit must be None or > 0, "
                f"got {self.attempt_time_limit}"
            )


@dataclass
class IIAttempt:
    """Record of one (II, slack) attempt of the iterative loop."""

    ii: int
    schedule_slack: int
    status: str  # "SAT", "UNSAT", "UNKNOWN", "REGALLOC_FAIL"
    #: Variables and clauses of the constraint groups this attempt encoded.
    #: Like ``emission_batches`` and ``duplicate_clauses_dropped`` below,
    #: they sum over both groups of an escalated attempt: the sequential
    #: probe and the pairwise re-encode.
    num_variables: int = 0
    num_clauses: int = 0
    encode_time: float = 0.0
    solve_time: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    #: Solver calls made for this attempt (1 + register-allocation retries).
    solve_calls: int = 0
    #: Blocking clauses added by register-allocation retries.
    blocking_clauses: int = 0
    #: Clauses pushed into the solver from the first solve call onwards,
    #: measured at the sink.  Equal to ``blocking_clauses`` — the proof that
    #: retry rounds never re-emit the base encoding (asserted in tests).
    retry_clauses_added: int = 0
    #: Assumption literal guarding this attempt's constraint group (the
    #: first variable of the attempt's solver).
    selector: int | None = None
    #: Solver-core counters summed over this attempt's solve calls:
    #: propagations, implications served by the binary/ternary implication
    #: lists, and watch entries dismissed by their blocker literal.
    propagations: int = 0
    binary_propagations: int = 0
    blocker_skips: int = 0
    #: Flat clause-store footprint (bytes) when the last solve returned.
    arena_bytes: int = 0
    #: Flat batches the encoder pushed into the solver, and exact duplicate
    #: clauses it dropped (one seen-set per encoded group).
    emission_batches: int = 0
    duplicate_clauses_dropped: int = 0
    #: Whether the attempt escalated from the sequential probe encoding to
    #: the pairwise-optimised ``AUTO`` form (see
    #: ``MapperConfig.amo_probe_conflicts``).
    escalated: bool = False
    #: Heuristic-seed ceiling in force when this attempt ran (``None`` in
    #: unseeded runs): the II of the validated heuristic mapping bounding
    #: the search from above — every seeded attempt probes strictly below.
    seed_ceiling: int | None = None
    #: SHA-256 digest of the DRAT trace backing an UNSAT answer (``None``
    #: unless proof logging was on and the attempt ended UNSAT).  Cache
    #: entries persist these so served lower bounds stay checkable.
    proof_digest: str | None = None

    def record_solve(self, stats) -> None:
        """Fold one solve call's :class:`SolverStats` into this attempt."""
        self.solve_calls += 1
        self.solve_time += stats.solve_time
        self.conflicts += stats.conflicts
        self.decisions += stats.decisions
        self.propagations += stats.propagations
        self.binary_propagations += stats.binary_propagations
        self.blocker_skips += stats.blocker_skips
        self.arena_bytes = max(self.arena_bytes, stats.arena_bytes)


@dataclass
class MappingOutcome:
    """Overall result of a mapping run."""

    success: bool
    dfg_name: str
    cgra_name: str
    ii: int | None = None
    mapping: Mapping | None = None
    register_allocation: RegisterAllocation | None = None
    attempts: list[IIAttempt] = field(default_factory=list)
    total_time: float = 0.0
    minimum_ii: int = 1
    timed_out: bool = False
    #: Name of the solver backend that served the run.
    backend_name: str = "cdcl"
    #: Name of the search strategy that drove the II search.
    search_strategy: str = "ladder"
    #: Whether the result was served by the persistent mapping cache (in
    #: which case ``attempts`` is empty — no SAT work was done).
    cache_hit: bool = False
    #: Canonical cache key of this problem (``None`` when caching is off).
    cache_key: str | None = None
    #: Per-run cache counters (:class:`repro.search.cache.CacheStats`);
    #: ``None`` when caching is off.
    cache_stats: object | None = None
    #: Portfolio-strategy counters: worker processes launched, and workers
    #: cancelled because a rival answered first.
    portfolio_launched: int = 0
    portfolio_cancelled: int = 0
    #: Configuration variant that produced the winning mapping (portfolio
    #: runs only).
    portfolio_winner: str | None = None
    #: Heuristic-seeding pre-pass results (``seed_heuristic`` runs only):
    #: II and producing mapper of the validated seed (``None``/empty when
    #: the pre-pass found nothing), wall-clock spent seeding, and whether
    #: the returned mapping *is* the heuristic one (the SAT search proved
    #: everything below infeasible, or timed out and fell back to it).
    seed_ii: int | None = None
    seed_mapper: str | None = None
    seed_time: float = 0.0
    seed_used: bool = False
    #: Path of the DRAT trace of the run's latest UNSAT attempt (``None``
    #: unless ``MapperConfig.proof`` was on and an attempt ended UNSAT);
    #: per-attempt digests live in ``IIAttempt.proof_digest``.
    proof_path: str | None = None

    @property
    def incremental_resolves(self) -> int:
        """Solver calls served purely incrementally (no re-encoded base).

        Every solve call beyond an attempt's first is a register-allocation
        retry answered by adding one blocking clause and re-solving.
        """
        return sum(max(0, attempt.solve_calls - 1) for attempt in self.attempts)

    @property
    def binary_propagations(self) -> int:
        """Implications served by the implication lists, summed."""
        return sum(attempt.binary_propagations for attempt in self.attempts)

    @property
    def blocker_skips(self) -> int:
        """Watch entries dismissed by a true blocker literal, summed."""
        return sum(attempt.blocker_skips for attempt in self.attempts)

    @property
    def arena_bytes(self) -> int:
        """Peak flat clause-store footprint over the run's attempts."""
        return max((attempt.arena_bytes for attempt in self.attempts), default=0)

    @property
    def emission_batches(self) -> int:
        """Bulk emission flushes across all attempts."""
        return sum(attempt.emission_batches for attempt in self.attempts)

    @property
    def duplicate_clauses_dropped(self) -> int:
        """Duplicate clauses the emitter's hashed dedup dropped, summed."""
        return sum(attempt.duplicate_clauses_dropped for attempt in self.attempts)

    @property
    def final_status(self) -> str:
        if self.success:
            return "mapped"
        if self.timed_out:
            return "timeout"
        return "failed"

    def summary(self) -> str:
        """One-line summary used by the CLI and the experiment harness."""
        if self.success:
            cached = ", cached" if self.cache_hit else ""
            return (
                f"{self.dfg_name} on {self.cgra_name}: II={self.ii} "
                f"(MII={self.minimum_ii}, {len(self.attempts)} attempts, "
                f"{self.total_time:.2f}s{cached})"
            )
        return (
            f"{self.dfg_name} on {self.cgra_name}: {self.final_status} after "
            f"{len(self.attempts)} attempts ({self.total_time:.2f}s)"
        )


class SatMapItMapper:
    """The SAT-based modulo scheduling mapper (the paper's contribution)."""

    name = "SAT-MapIt"

    def __init__(self, config: MapperConfig | None = None) -> None:
        self.config = config or MapperConfig()

    # ------------------------------------------------------------------
    def map(self, dfg: DFG, cgra: CGRA, start_ii: int | None = None) -> MappingOutcome:
        """Find the smallest feasible II for ``dfg`` on ``cgra``.

        The search starts at the minimum initiation interval (max of ResMII,
        RecMII and — on heterogeneous fabrics — the capability-constrained
        resource bound) unless ``start_ii`` overrides it.  *How* the II range
        is walked is delegated to the configured search strategy (see
        :mod:`repro.search`): the sequential ladder by default, a parallel
        portfolio on request — every strategy funnels its attempts through
        the same per-II machinery, so the outcome's per-attempt stats are
        complete regardless of the policy.  With
        ``MapperConfig.cache_dir`` set, a hit in the persistent mapping
        cache is served, else this is :meth:`solve`, which stores what it
        finds.  A kernel whose opcode histogram cannot fit the fabric at any
        II (an op class with no capable PE) raises :class:`MappingError`
        before any SAT work.
        """
        outcome, cache, first_ii, start = self._prepare(dfg, cgra, start_ii)
        if cache is not None and self._serve_hit(cache, outcome, dfg, cgra, start):
            return outcome
        return self._search(outcome, cache, dfg, cgra, first_ii, start)

    def solve(
        self, dfg: DFG, cgra: CGRA, start_ii: int | None = None
    ) -> MappingOutcome:
        """The search step of :meth:`map`: search, then store the result.

        The cache is not read (the caller has missed in it already); with
        ``MapperConfig.cache_dir`` set, a complete successful search is
        stored under the problem's key.
        """
        outcome, cache, first_ii, start = self._prepare(dfg, cgra, start_ii)
        return self._search(outcome, cache, dfg, cgra, first_ii, start)

    # ------------------------------------------------------------------
    def _new_outcome(self, dfg: DFG, cgra: CGRA, minimum_ii: int) -> MappingOutcome:
        # Imported lazily: repro.search imports mapper types at module load.
        from repro.search import create_strategy

        return MappingOutcome(
            success=False,
            dfg_name=dfg.name,
            cgra_name=cgra.name,
            minimum_ii=minimum_ii,
            backend_name=self.config.backend,
            search_strategy=create_strategy(self.config.search).name,
        )

    def _prepare(self, dfg: DFG, cgra: CGRA, start_ii: int | None):
        """Validate the problem and open a run: ``(outcome, cache, first_ii,
        start)``, with the cache handle and key only when caching is on."""
        dfg.validate()
        check_kernel_fits(dfg, cgra)
        start = time.perf_counter()
        mii = effective_minimum_ii(dfg, cgra)
        first_ii = max(start_ii or mii, 1)
        outcome = self._new_outcome(dfg, cgra, minimum_ii=mii)
        cache = None
        config = self.config
        if config.cache_dir:
            from repro.search.cache import MappingCache, resolve_cache_dir

            cache = MappingCache(
                resolve_cache_dir(config.cache_dir, config.cache_namespace),
                max_mb=config.cache_max_mb,
            )
            outcome.cache_key = cache.key(dfg, cgra, config, start_ii=first_ii)
            outcome.cache_stats = cache.stats
        return outcome, cache, first_ii, start

    def _serve_hit(
        self, cache: MappingCache, outcome: MappingOutcome,
        dfg: DFG, cgra: CGRA, start: float,
    ) -> bool:
        """Fill ``outcome`` from the cache entry under its key, if any."""
        hit = cache.lookup_key(outcome.cache_key)
        if hit is None:
            return False
        config = self.config
        outcome.success = True
        outcome.cache_hit = True
        outcome.ii = hit.ii
        outcome.minimum_ii = hit.minimum_ii
        outcome.mapping = hit.mapping
        if config.run_register_allocation:
            # The archived mapping carries its register assignment, but the
            # report-facing RegisterAllocation object (max pressure, per-PE
            # usage) is cheap to recompute — a hit must print the same
            # sections a fresh run would.
            allocation = allocate_registers(
                dfg, cgra, hit.mapping, config.neighbour_register_file_access,
            )
            if allocation.success:
                hit.mapping.apply_allocation(allocation)
                outcome.register_allocation = allocation
        outcome.total_time = time.perf_counter() - start
        self._log(
            f"cache hit for {dfg.name} on {cgra.name}: "
            f"II={hit.ii} ({outcome.cache_key[:12]}…)"
        )
        return True

    def _search(
        self, outcome: MappingOutcome, cache: MappingCache | None,
        dfg: DFG, cgra: CGRA, first_ii: int, start: float,
    ) -> MappingOutcome:
        """Run the II search into ``outcome``; store a complete success."""
        from repro.search import SearchContext, create_strategy

        config = self.config
        seed = None
        if config.seed_heuristic:
            from repro.search.seed import run_seed

            seed_start = time.perf_counter()
            remaining = self._remaining_time(start)
            budget = config.seed_time_budget
            if remaining is not None:
                budget = min(budget, remaining)
            seed_result = run_seed(dfg, cgra, config, first_ii, budget=budget)
            outcome.seed_time = time.perf_counter() - seed_start
            if seed_result is not None:
                outcome.seed_ii = seed_result.ii
                outcome.seed_mapper = seed_result.mapper_name
                seed = seed_result.as_search_result()
                self._log(
                    f"heuristic seed: {seed_result.mapper_name} found "
                    f"II={seed_result.ii} in {outcome.seed_time:.3f}s"
                )
            else:
                self._log(
                    f"heuristic seed: no feasible mapping within "
                    f"{budget:.1f}s"
                )

        context = SearchContext(
            self, dfg, cgra, outcome, start, first_ii, seed=seed
        )
        found = create_strategy(config.search).search(context)
        outcome.total_time = time.perf_counter() - start
        if found is not None:
            outcome.success = True
            outcome.ii = found.ii
            outcome.mapping = found.mapping
            outcome.register_allocation = found.allocation
            outcome.seed_used = (
                seed is not None and found.mapping is seed.mapping
            )
            # A timed-out search may have returned an anytime (feasible but
            # possibly non-minimal) II; the cache key ignores budgets, so
            # caching it would pin the weaker answer for generously-budgeted
            # future runs too.  Only complete searches are stored.
            if cache is not None and not outcome.timed_out:
                cache.store(outcome.cache_key, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _try_ii(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        outcome: MappingOutcome,
        start: float,
    ) -> tuple[Mapping, RegisterAllocation | None] | None:
        """Attempt one II, trying increasing schedule slack before giving up."""
        config = self.config
        # When the II exceeds the critical-path length (large kernels on tiny
        # fabrics) the schedule length, not the II, caps the number of usable
        # (PE, cycle) slots; stretch the mobility schedule so that all II
        # kernel cycles are actually reachable.
        structural_slack = max(0, ii - critical_path_length(dfg))
        for extra_slack in range(config.max_extra_slack + 1):
            if self._out_of_time(start):
                outcome.timed_out = True
                return None
            slack = config.schedule_slack + structural_slack + extra_slack
            attempt = IIAttempt(ii=ii, schedule_slack=slack, status="UNKNOWN")
            outcome.attempts.append(attempt)

            conflict_limit = config.solver_conflict_limit
            if extra_slack > 0 and config.slack_conflict_limit is not None:
                if conflict_limit is None:
                    conflict_limit = config.slack_conflict_limit
                else:
                    conflict_limit = min(conflict_limit, config.slack_conflict_limit)
            # The attempt's solvers die when ``_attempt`` returns, so at most
            # one attempt's clauses are alive at a time.
            found = self._attempt(dfg, cgra, attempt, conflict_limit, outcome, start)
            if found is not None or outcome.timed_out:
                return found
            # Try the next slack level / II.
        return None

    def _attempt(
        self,
        dfg: DFG,
        cgra: CGRA,
        attempt: IIAttempt,
        conflict_limit: int | None,
        outcome: MappingOutcome,
        start: float,
    ) -> tuple[Mapping, RegisterAllocation | None] | None:
        """Encode, solve and register-allocate one (II, slack) attempt.

        Like the paper, every attempt builds its formula in a fresh solver
        (and a second one when its probe escalates); the solver lives only
        as long as the attempt.
        """
        config = self.config
        ii, slack = attempt.ii, attempt.schedule_slack
        encode_start = time.perf_counter()
        mobility = MobilitySchedule.build(dfg, slack=slack)
        kms = KernelMobilitySchedule.build(mobility, ii)

        def encode_group(backend: SolverBackend, amo: AMOEncoding):
            """Encode this attempt's constraint group into ``backend``.

            The group is guarded by a selector literal, the solver's first
            variable, that every solve call assumes.  The guard routes the
            group's ternary clauses onto the core's guarded-ternary lists.
            """
            encoder_config = EncoderConfig(
                amo_encoding=amo,
                max_iteration_span=config.max_iteration_span,
                enforce_output_register=config.enforce_output_register,
                symmetry_breaking=config.symmetry_breaking,
            )
            attempt.selector = backend.new_var()
            group_encoding = MappingEncoder(
                dfg, cgra, kms, encoder_config,
                sink=backend, selector=attempt.selector,
            ).encode()
            attempt.num_variables += group_encoding.stats.num_variables
            attempt.num_clauses += group_encoding.stats.num_clauses
            attempt.emission_batches += group_encoding.stats.num_batches
            attempt.duplicate_clauses_dropped += (
                group_encoding.stats.num_duplicate_clauses
            )
            return group_encoding

        backend = self._new_backend(dfg, cgra, attempt)
        try:
            # Two-phase escalation: probe with the compact sequential
            # encoding first; only attempts too hard for the probe budget
            # pay the quadratic pairwise emission (where its propagation
            # advantage dwarfs the encode cost).
            probe_budget = config.amo_probe_conflicts
            probing = (
                config.amo_encoding is AMOEncoding.AUTO
                and probe_budget is not None
                and (conflict_limit is None or conflict_limit > probe_budget)
                # Escalation keys on the probe's *conflict count* reaching
                # the budget; engines that cannot report conflicts (the
                # DPLL oracle) would make every hard probe look
                # inconclusive-for-free, so they skip probing entirely.
                and getattr(backend, "instrumented", True)
            )
            first_amo = AMOEncoding.SEQUENTIAL if probing else config.amo_encoding
            encoding = encode_group(backend, first_amo)
            attempt.encode_time = time.perf_counter() - encode_start

            time_limit = self._attempt_time_limit(start)
            # Solve, decode and run register allocation.  A colouring failure
            # is handled the way the paper treats an uncolourable interference
            # graph: instead of walking straight to the next II, the same
            # formula is re-solved with a blocking clause that rules out the
            # placement combination on the overloaded PE, asking the solver
            # for a structurally different mapping at the same II.  Retry
            # rounds never rebuild the solver or re-emit the base encoding —
            # they add exactly one blocking clause and re-solve.
            retry_baseline: int | None = None
            # The mapper only ever decodes placement literals, so every SAT
            # model is projected onto them instead of materialising the full
            # ``{var: bool}`` dict over the encoding's auxiliary variables.
            placement_vars = list(encoding.variables.values())
            pending_result = None
            if probing:
                probe_result = backend.solve(
                    assumptions=[attempt.selector],
                    conflict_limit=probe_budget,
                    time_limit=time_limit,
                    model_vars=placement_vars,
                )
                attempt.record_solve(probe_result.stats)
                if (
                    probe_result.status == "UNKNOWN"
                    and probe_result.stats.conflicts >= probe_budget
                    and not self._out_of_time(start)
                ):
                    # Too hard for the probe (the *conflict* budget ran out,
                    # not the clock): drop the probe's solver and re-encode
                    # the same attempt pairwise-optimised in a fresh one.
                    self._close_phase(backend, keep_trace=False)
                    backend = None  # freed before the pairwise solver is built
                    attempt.escalated = True
                    self._log(f"II={ii} slack={slack}: escalating to "
                              f"pairwise AMO after {probe_budget} conflicts")
                    escalate_start = time.perf_counter()
                    backend = self._new_backend(dfg, cgra, attempt)
                    encoding = encode_group(backend, config.amo_encoding)
                    attempt.encode_time += time.perf_counter() - escalate_start
                    placement_vars = list(encoding.variables.values())
                    # The probe's spend counts against the attempt's budgets:
                    # charge its conflicts to the configured cap and refresh
                    # the wall-clock limit for the escalated phase.
                    if conflict_limit is not None:
                        conflict_limit = max(
                            1, conflict_limit - probe_result.stats.conflicts
                        )
                    time_limit = self._attempt_time_limit(start)
                else:
                    # The probe concluded (or ran out the clock): its result
                    # feeds the round below as-is.
                    pending_result = probe_result
            for regalloc_round in range(config.regalloc_retries + 1):
                if pending_result is not None:
                    # The probe's conclusive answer; stats already recorded.
                    result, pending_result = pending_result, None
                else:
                    result = backend.solve(
                        assumptions=[attempt.selector],
                        conflict_limit=conflict_limit,
                        time_limit=time_limit,
                        model_vars=placement_vars,
                    )
                    attempt.record_solve(result.stats)
                if retry_baseline is None:
                    # Sink clause count after the first solve: everything
                    # added past this point is retry work.
                    retry_baseline = backend.stats.clauses_added

                if result.status == "UNKNOWN":
                    attempt.status = "UNKNOWN"
                    if self._out_of_time(start):
                        outcome.timed_out = True
                    # Inconclusive bounded attempt: fall through to the next
                    # slack level / II.
                    return None
                if result.is_unsat:
                    attempt.status = "UNSAT"
                    self._record_proof(attempt, outcome, backend)
                    self._log(f"II={ii} slack={slack}: UNSAT "
                              f"({attempt.num_clauses} clauses)")
                    return None

                attempt.status = "SAT"
                assert result.model is not None
                mapping = self._build_mapping(
                    dfg, cgra, ii, encoding.decode(result.model)
                )
                violations = mapping.violations(
                    check_overwrite=config.enforce_output_register
                )
                if violations:
                    raise MappingError(
                        "SAT model decodes to an illegal mapping — encoding bug: "
                        + "; ".join(violations[:5])
                    )

                if not config.run_register_allocation:
                    return mapping, None
                allocation = allocate_registers(
                    dfg, cgra, mapping, config.neighbour_register_file_access
                )
                if allocation.success:
                    mapping.apply_allocation(allocation)
                    return mapping, allocation
                attempt.status = "REGALLOC_FAIL"
                self._log(f"II={ii} slack={slack}: register allocation failed "
                          f"({allocation.failure_reason})")
                if regalloc_round < config.regalloc_retries:
                    attempt.blocking_clauses += self._block_overloaded_pe(
                        encoding, mapping, allocation, backend
                    )
                    attempt.retry_clauses_added = (
                        backend.stats.clauses_added - retry_baseline
                    )
            return None
        finally:
            self._close_phase(backend, keep_trace=attempt.status == "UNSAT")

    def _attempt_time_limit(self, start: float) -> float | None:
        """The run's remaining time, capped by ``attempt_time_limit``."""
        limits = (self._remaining_time(start), self.config.attempt_time_limit)
        return min((limit for limit in limits if limit is not None), default=None)

    def _new_backend(self, dfg: DFG, cgra: CGRA, attempt: IIAttempt) -> SolverBackend:
        """A fresh solver for one phase of ``attempt``."""
        kwargs: dict[str, object] = {"random_seed": self.config.random_seed}
        if self.config.proof:
            # The CDCL engine (the only proof-capable one; MapperConfig
            # rejects the rest) streams the phase's DRAT trace to a file in
            # the system temp dir.  The attempt's digest is the durable
            # artefact.
            fd, path = tempfile.mkstemp(
                prefix=f"{dfg.name}@{cgra.name}-ii{attempt.ii}"
                       f"-slack{attempt.schedule_slack}-",
                suffix=".drat",
            )
            os.close(fd)
            kwargs["proof_path"] = path
        return create_backend(self.config.backend, **kwargs)

    @staticmethod
    def _close_phase(backend: SolverBackend | None, keep_trace: bool) -> None:
        """Close a phase's proof trace; delete it unless the phase refuted
        its attempt."""
        close = getattr(backend, "close", None)
        if close is not None:
            close()
        path = getattr(backend, "proof_path", None)
        if path and not keep_trace:
            os.unlink(path)

    @staticmethod
    def _record_proof(attempt, outcome, backend: SolverBackend) -> None:
        """Attach the backing DRAT evidence to an UNSAT attempt.

        Backends that log proofs expose ``proof_digest()``: the digest of
        the trace of the attempt's own solver, which refutes the attempt's
        group alone under its selector assumption.  Attempts and the
        outcome record digest and path so cached lower bounds stay
        independently checkable.
        """
        digest_fn = getattr(backend, "proof_digest", None)
        if digest_fn is None:
            return
        digest = digest_fn()
        if digest:
            attempt.proof_digest = digest
        path = getattr(backend, "proof_path", None)
        if path:
            outcome.proof_path = str(path)

    @staticmethod
    def _block_overloaded_pe(
        encoding, mapping: Mapping, allocation, backend: SolverBackend
    ) -> int:
        """Forbid the placement combination that overloaded a register file.

        Adds one clause to ``backend`` saying "not all of these nodes on this
        PE at these cycles again"; the next solve call must produce a mapping
        that differs on the overloaded PE.  Returns the number of clauses
        added.
        """
        failed_pe = allocation.failed_pe
        literals: list[int] = []
        for node_id, placement in mapping.placements.items():
            if failed_pe is not None and placement.pe != failed_pe:
                continue
            key = (node_id, placement.pe, placement.cycle, placement.iteration)
            var = encoding.variables.get(key)
            if var is not None:
                literals.append(-var)
        if not literals:
            return 0
        # Guard the blocking clause with the attempt's selector like the
        # rest of the constraint group (tail position keeps the watched
        # literals the same as unguarded).
        literals.append(-encoding.selector)
        backend.add_clause(literals)
        return 1

    # ------------------------------------------------------------------
    @staticmethod
    def _build_mapping(
        dfg: DFG, cgra: CGRA, ii: int, placements: dict[int, tuple[int, int, int]]
    ) -> Mapping:
        mapping = Mapping(dfg=dfg, cgra=cgra, ii=ii)
        for node_id, (pe, cycle, iteration) in placements.items():
            mapping.place(node_id, pe, cycle, iteration)
        return mapping

    def _out_of_time(self, start: float) -> bool:
        timeout = self.config.timeout
        return timeout is not None and (time.perf_counter() - start) >= timeout

    def _remaining_time(self, start: float) -> float | None:
        timeout = self.config.timeout
        if timeout is None:
            return None
        return max(0.01, timeout - (time.perf_counter() - start))

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[SAT-MapIt] {message}")
