"""SAT-MapIt iterative mapping driver (paper Figure 3).

For a candidate II the driver builds the KMS, encodes the mapping problem,
calls the SAT backend, and — on SAT — runs register allocation.  If the
formula is UNSAT or the colouring fails, the search moves to another II,
until a mapping is found or a bound (maximum II, wall-clock timeout) is
hit.  *Which* II is tried next is a pluggable policy: ``map()`` delegates
the walk to a :mod:`repro.search` strategy (the paper's sequential ladder
by default; bisection and a process-parallel portfolio on request) and can
short-circuit the whole search through the persistent mapping cache
(``MapperConfig.cache_dir``).

The loop is *incremental* by default: one persistent solver backend serves
the whole mapping run.  Each (II, slack) attempt encodes its constraint group
guarded by a fresh selector literal and is solved under the assumption that
the selector is true; retiring the attempt is an assumption flip plus one
``¬selector`` unit.  Register-allocation rejections stay inside the same
attempt — one blocking clause is added and the backend re-solves with all
learned clauses, activities and phases intact, with zero re-encoded base
clauses (the per-attempt stats prove it).  ``MapperConfig.incremental=False``
restores per-attempt fresh solving, which the test-suite uses as the
semantic-equivalence reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import check_kernel_fits, effective_minimum_ii
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mapping import Mapping
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.core.regalloc import RegisterAllocation, allocate_registers
from repro.dfg.analysis import critical_path_length
from repro.dfg.graph import DFG
from repro.exceptions import MappingError
from repro.sat.backend import SolverBackend
from repro.sat.encodings import AMOEncoding
from repro.sat.preprocess import Reconstructor, simplify
from repro.sat.solver import CDCLSolver, make_solver


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
    #: Two-phase encoding escalation (``AUTO`` + incremental backend only):
    #: each (II, slack) attempt is first *probed* with the compact
    #: sequential encoding under this conflict budget — easy attempts
    #: conclude without ever paying the quadratic pairwise emission; an
    #: inconclusive probe retires its group and re-encodes the same attempt
    #: with the propagation-optimal ``AUTO`` form.  ``None`` disables the
    #: probe.  Sound because each phase is its own selector-guarded group.
    amo_probe_conflicts: int | None = 600
    #: Solver backend name (see :mod:`repro.sat.backend`); ``"cdcl"`` is the
    #: production engine, ``"dpll"`` the slow reference oracle.  External
    #: engines (``"kissat"``, ``"minisat"``, the bundled ``"subprocess"``,
    #: or ``"external:<path>"``; see :mod:`repro.sat.external`) solve
    #: DIMACS exports in a subprocess — they require ``incremental=True``
    #: and are driven through assumption unit cubes.
    backend: str = "cdcl"
    #: Directory for DIMACS artefacts (see :mod:`repro.sat.dimacs`).  For
    #: external backends every solve call's formula (and any DRAT proof)
    #: lands here under a content-addressed name; ``None`` keeps them in a
    #: per-backend temporary directory.
    dimacs_dir: str | None = None
    #: Skip re-writing a DIMACS export whose content-addressed file already
    #: exists in ``dimacs_dir`` — amortises export I/O across re-runs of
    #: the same problem.
    reuse_dimacs: bool = False
    #: Emit DRAT proofs (see :mod:`repro.sat.drat`): the internal CDCL logs
    #: learned clauses/deletions, external solvers that support DRAT get a
    #: proof path on their command line.  UNSAT attempts then record a
    #: proof digest and ``MappingOutcome.proof_path`` names the trace.
    proof: bool = False
    #: Run the SatELite-style preprocessor (see :mod:`repro.sat.preprocess`)
    #: over every formula before solving.  Selector and placement variables
    #: are frozen so assumption-based attempt retirement and model decoding
    #: stay sound; every model is reconstructed before decoding.
    preprocess: bool = False
    #: Keep one persistent backend per mapping run and drive the iterative
    #: loop through assumption-guarded constraint groups.  ``False`` restores
    #: a fresh solver per (II, slack) attempt (retry rounds within an attempt
    #: are still incremental — the solver is never rebuilt mid-attempt).
    incremental: bool = True
    max_iteration_span: int | None = None
    enforce_output_register: bool = False
    symmetry_breaking: bool = True
    #: Per-node placement-domain restriction forwarded to the encoder (see
    #: :class:`repro.core.encoder.EncoderConfig.placement_domains`):
    #: ``((node_id, (pe, ...)), ...)`` confines the listed nodes to the
    #: given PE indices.  This is how partition-and-stitch sub-solves pin a
    #: partition's nodes to a fabric region and cut-edge endpoints to its
    #: border rows.  Part of the cache key (a domain-restricted problem is a
    #: different problem); disables symmetry breaking inside the encoder and
    #: the heuristic seeding pre-pass (neither is domain-aware).
    placement_domains: tuple[tuple[int, tuple[int, ...]], ...] | None = None
    neighbour_register_file_access: bool = True
    run_register_allocation: bool = True
    solver_conflict_limit: int | None = None
    random_seed: int | None = None
    verbose: bool = False
    #: II-search strategy (see :mod:`repro.search`): ``"ladder"`` is the
    #: paper's sequential climb, ``"bisect"`` binary-searches the II range
    #: using UNSAT answers as lower bounds, and ``"portfolio"`` races
    #: several IIs and solver-configuration variants across worker
    #: processes, cancelling the losers on the first win at the frontier.
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
    #: bisection skips its gallop phase, the portfolio only races IIs below
    #: it — and is the anytime answer when the SAT search times out.  Like
    #: the search strategy, seeding never changes the II of a completed
    #: run, only how fast it is reached (CI-gated), so it is excluded from
    #: the cache key.
    seed_heuristic: bool = False
    #: Wall-clock budget (seconds) for the whole seeding pre-pass.
    seed_time_budget: float = 2.0
    #: Heuristic mappers the pre-pass runs, in order (names from
    #: :data:`repro.baselines.HEURISTIC_MAPPERS`); later mappers only
    #: search below the best II already found.
    seed_mappers: tuple[str, ...] = ("ramp", "pathseeker")
    #: Directory of the persistent lane-statistics store
    #: (:class:`repro.search.tuner.LaneTuner`); ``None`` disables tuning.
    #: The portfolio consults it to order its variant line-up and size the
    #: probe conflict budget, and records each settled race back into it.
    tuner_dir: str | None = None


@dataclass
class IIAttempt:
    """Record of one (II, slack) attempt of the iterative loop."""

    ii: int
    schedule_slack: int
    status: str  # "SAT", "UNSAT", "UNKNOWN", "REGALLOC_FAIL"
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
    #: Learned clauses alive in the persistent backend when this attempt
    #: started — inference carried over from earlier attempts (0 in
    #: non-incremental mode and for the first attempt).
    learned_carried_in: int = 0
    #: Assumption literal guarding this attempt's constraint group (``None``
    #: in non-incremental mode).
    selector: int | None = None
    #: Preprocessing yield for this attempt's formula (zero when the
    #: preprocessor is off): net clause/variable reduction and the wall-clock
    #: time the pipeline spent earning it.
    pre_clauses_removed: int = 0
    pre_vars_eliminated: int = 0
    preprocess_time: float = 0.0
    #: Solver-core counters summed over this attempt's solve calls:
    #: propagations, implications served by the binary/ternary implication
    #: lists, and watch entries dismissed by their blocker literal.
    propagations: int = 0
    binary_propagations: int = 0
    blocker_skips: int = 0
    #: Flat clause-store footprint (bytes) when the last solve returned.
    arena_bytes: int = 0
    #: Batched emission: bulk flushes the encoder pushed into the solver and
    #: exact duplicate clauses its per-batch hashed dedup dropped.
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
    #: Lane-tuner interaction (``tuner_dir`` runs only): whether persisted
    #: statistics informed the portfolio line-up, the line-up raced, and
    #: the handle's counters (:class:`repro.search.tuner.TunerStats`).
    tuner_consulted: bool = False
    tuner_lineup: tuple[str, ...] | None = None
    tuner_stats: object | None = None
    #: Path of the most recent DRAT trace emitted during the run (``None``
    #: unless ``MapperConfig.proof`` was on and an UNSAT attempt produced
    #: one); per-attempt digests live in ``IIAttempt.proof_digest``.
    proof_path: str | None = None

    @property
    def incremental_resolves(self) -> int:
        """Solver calls served purely incrementally (no re-encoded base).

        Every solve call beyond an attempt's first is a register-allocation
        retry answered by adding one blocking clause and re-solving.
        """
        return sum(max(0, attempt.solve_calls - 1) for attempt in self.attempts)

    @property
    def learned_carried(self) -> int:
        """Learned clauses carried across attempt boundaries (summed)."""
        return sum(attempt.learned_carried_in for attempt in self.attempts)

    @property
    def pre_clauses_removed(self) -> int:
        """Clauses the preprocessor removed, summed over attempts."""
        return sum(attempt.pre_clauses_removed for attempt in self.attempts)

    @property
    def pre_vars_eliminated(self) -> int:
        """Variables the preprocessor removed, summed over attempts."""
        return sum(attempt.pre_vars_eliminated for attempt in self.attempts)

    @property
    def preprocess_time(self) -> float:
        """Wall-clock seconds spent inside the preprocessor, summed."""
        return sum(attempt.preprocess_time for attempt in self.attempts)

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
        :mod:`repro.search`): the sequential ladder by default, bisection or
        a parallel portfolio on request — every strategy funnels its
        attempts through the same per-II machinery, so the outcome's
        per-attempt stats are complete regardless of the policy.  With
        ``MapperConfig.cache_dir`` set, the persistent mapping cache is
        consulted first and fed on success.  A kernel whose opcode histogram
        cannot fit the fabric at any II (an op class with no capable PE)
        raises :class:`MappingError` before any SAT work.
        """
        # Imported lazily: repro.search imports mapper types at module load.
        from repro.search import SearchContext, create_strategy
        from repro.search.cache import MappingCache, resolve_cache_dir

        config = self.config
        dfg.validate()
        check_kernel_fits(dfg, cgra)
        start = time.perf_counter()
        mii = effective_minimum_ii(dfg, cgra)
        first_ii = max(start_ii or mii, 1)
        backend_name = config.backend
        from repro.sat.external import is_external_backend

        if is_external_backend(backend_name):
            # External engines are one-shot subprocesses steered by unit
            # cubes; the non-incremental path and the preprocessor both
            # assume an in-process solver.
            if not config.incremental:
                raise MappingError(
                    f"backend {backend_name!r} requires incremental mode"
                )
            if config.preprocess:
                raise MappingError(
                    f"backend {backend_name!r} does not compose with the "
                    "preprocessor (the simplifier rewrites the formula the "
                    "export and any proof must refer to)"
                )
        elif config.preprocess and not backend_name.endswith("+preprocess"):
            backend_name = f"{backend_name}+preprocess"
        strategy = create_strategy(config.search)
        outcome = MappingOutcome(
            success=False,
            dfg_name=dfg.name,
            cgra_name=cgra.name,
            minimum_ii=mii,
            backend_name=backend_name,
            search_strategy=strategy.name,
        )

        cache: MappingCache | None = None
        key: str | None = None
        if config.cache_dir:
            cache = MappingCache(
                resolve_cache_dir(config.cache_dir, config.cache_namespace),
                max_mb=config.cache_max_mb,
            )
            key = cache.key(dfg, cgra, config, start_ii=first_ii)
            outcome.cache_key = key
            outcome.cache_stats = cache.stats
            hit = cache.lookup_key(key)
            if hit is not None:
                outcome.success = True
                outcome.cache_hit = True
                outcome.ii = hit.ii
                outcome.minimum_ii = hit.minimum_ii
                outcome.mapping = hit.mapping
                if config.run_register_allocation:
                    # The archived mapping carries its register assignment,
                    # but the report-facing RegisterAllocation object (max
                    # pressure, per-PE usage) is cheap to recompute — a hit
                    # must print the same sections a fresh run would.
                    allocation = allocate_registers(
                        dfg, cgra, hit.mapping,
                        config.neighbour_register_file_access,
                    )
                    if allocation.success:
                        hit.mapping.apply_allocation(allocation)
                        outcome.register_allocation = allocation
                outcome.total_time = time.perf_counter() - start
                self._log(
                    f"cache hit for {dfg.name} on {cgra.name}: "
                    f"II={hit.ii} ({key[:12]}…)"
                )
                return outcome

        seed = None
        # The heuristic mappers know nothing about placement domains; a seed
        # mapping could violate them, so domain-restricted runs stay unseeded.
        if config.seed_heuristic and not config.placement_domains:
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

        tuner = None
        if config.tuner_dir:
            from repro.search.tuner import LaneTuner

            tuner = LaneTuner(config.tuner_dir)
            outcome.tuner_stats = tuner.stats

        context = SearchContext(
            self, dfg, cgra, outcome, start, first_ii, seed=seed, tuner=tuner
        )
        found = strategy.search(context)
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
            if cache is not None and key is not None and not outcome.timed_out:
                cache.store(key, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _try_ii(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        outcome: MappingOutcome,
        start: float,
        backend: SolverBackend | None = None,
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

            encode_start = time.perf_counter()
            mobility = MobilitySchedule.build(dfg, slack=slack)
            kms = KernelMobilitySchedule.build(mobility, ii)

            def encode_group(amo: AMOEncoding):
                """Encode this attempt's constraint group (one per phase)."""
                encoder_config = EncoderConfig(
                    amo_encoding=amo,
                    max_iteration_span=config.max_iteration_span,
                    enforce_output_register=config.enforce_output_register,
                    symmetry_breaking=config.symmetry_breaking,
                    placement_domains=config.placement_domains,
                )
                if backend is not None:
                    # Incremental path: emit into the persistent backend,
                    # guarded by a fresh selector literal.  The selector is
                    # assumed on every solve call and negated at retirement;
                    # a simplifying backend must never touch it.
                    group_selector = backend.new_var()
                    backend.freeze([group_selector])
                    encoder = MappingEncoder(
                        dfg, cgra, kms, encoder_config,
                        sink=backend, selector=group_selector,
                    )
                else:
                    group_selector = None
                    encoder = MappingEncoder(dfg, cgra, kms, encoder_config)
                group_encoding = encoder.encode()
                if backend is not None:
                    # Placement literals are decoded from models and re-appear
                    # in register-allocation blocking clauses and retirement
                    # units — they must survive preprocessing verbatim.
                    backend.freeze(group_encoding.variables.values())
                attempt.num_variables = group_encoding.stats.num_variables
                attempt.num_clauses = group_encoding.stats.num_clauses
                attempt.emission_batches += group_encoding.stats.num_batches
                attempt.duplicate_clauses_dropped += (
                    group_encoding.stats.num_duplicate_clauses
                )
                return group_encoding, group_selector

            # Two-phase escalation: probe with the compact sequential
            # encoding first; only attempts too hard for the probe budget
            # pay the quadratic pairwise emission (where its propagation
            # advantage dwarfs the encode cost).
            probe_budget = config.amo_probe_conflicts
            # Probing applies on both solving paths (so incremental and
            # one-shot runs walk comparable trajectories); the one-shot
            # preprocessing path is excluded — it would pay the simplifier
            # twice.
            probing = (
                config.amo_encoding is AMOEncoding.AUTO
                and probe_budget is not None
                and (conflict_limit is None or conflict_limit > probe_budget)
                and not (backend is None and config.preprocess)
                # Escalation keys on the probe's *conflict count* reaching
                # the budget; engines that cannot report conflicts (external
                # subprocesses, the DPLL oracle) would make every hard probe
                # look inconclusive-for-free, so they skip probing entirely.
                and (backend is None or getattr(backend, "instrumented", True))
            )
            first_amo = AMOEncoding.SEQUENTIAL if probing else config.amo_encoding
            encoding, selector = encode_group(first_amo)
            attempt.selector = selector
            if backend is not None:
                attempt.learned_carried_in = backend.stats.learned_in_db
            attempt.encode_time = time.perf_counter() - encode_start

            time_limit = self._remaining_time(start)
            if config.attempt_time_limit is not None:
                if time_limit is None:
                    time_limit = config.attempt_time_limit
                else:
                    time_limit = min(time_limit, config.attempt_time_limit)
            # Solve, decode and run register allocation.  A colouring failure
            # is handled the way the paper treats an uncolourable interference
            # graph: instead of walking straight to the next II, the same
            # formula is re-solved with a blocking clause that rules out the
            # placement combination on the overloaded PE, asking the solver
            # for a structurally different mapping at the same II.  Retry
            # rounds never rebuild the solver or re-emit the base encoding —
            # they add exactly one blocking clause and re-solve.
            fresh_solver: CDCLSolver | None = None
            retry_baseline: int | None = None
            reconstructor: Reconstructor | None = None
            pre_stats = getattr(backend, "preprocess_stats", None)
            pre_base = (
                (pre_stats.clauses_removed, pre_stats.variables_removed,
                 pre_stats.preprocess_time)
                if pre_stats is not None
                else (0, 0, 0.0)
            )
            # The mapper only ever decodes placement literals, so every SAT
            # model is projected onto them instead of materialising the full
            # ``{var: bool}`` dict over the persistent solver's whole
            # (attempt-accumulating) variable universe.  The one-shot
            # preprocessing path is the exception: model reconstruction
            # needs the full simplified-formula model first.
            placement_vars = list(encoding.variables.values())
            pending_result = None
            if probing:
                if backend is not None:
                    probe_result = backend.solve(
                        assumptions=[selector],
                        conflict_limit=probe_budget,
                        time_limit=time_limit,
                        model_vars=placement_vars,
                    )
                else:
                    fresh_solver = make_solver(random_seed=config.random_seed)
                    probe_result = fresh_solver.solve(
                        encoding.cnf,
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
                    # not the clock): drop the sequential group and
                    # re-encode the same attempt pairwise-optimised.
                    if backend is not None:
                        self._retire_group(backend, selector)
                    else:
                        fresh_solver = None
                    attempt.escalated = True
                    self._log(f"II={ii} slack={slack}: escalating to "
                              f"pairwise AMO after {probe_budget} conflicts")
                    escalate_start = time.perf_counter()
                    encoding, selector = encode_group(config.amo_encoding)
                    attempt.selector = selector
                    attempt.encode_time += time.perf_counter() - escalate_start
                    placement_vars = list(encoding.variables.values())
                    # The probe's spend counts against the attempt's budgets:
                    # charge its conflicts to the configured cap and refresh
                    # the wall-clock limit for the escalated phase.
                    if conflict_limit is not None:
                        conflict_limit = max(
                            1, conflict_limit - probe_result.stats.conflicts
                        )
                    time_limit = self._remaining_time(start)
                    if config.attempt_time_limit is not None:
                        if time_limit is None:
                            time_limit = config.attempt_time_limit
                        else:
                            time_limit = min(time_limit, config.attempt_time_limit)
                else:
                    # The probe concluded (or ran out the clock): its result
                    # feeds the round below as-is.
                    pending_result = probe_result
            for regalloc_round in range(config.regalloc_retries + 1):
                consumed_probe = False
                if pending_result is not None:
                    # The probe's conclusive answer; stats already recorded.
                    result, pending_result = pending_result, None
                    consumed_probe = True
                elif backend is not None:
                    result = backend.solve(
                        assumptions=[selector],
                        conflict_limit=conflict_limit,
                        time_limit=time_limit,
                        model_vars=placement_vars,
                    )
                elif fresh_solver is None:
                    fresh_solver = make_solver(random_seed=config.random_seed)
                    attempt_cnf = encoding.cnf
                    if config.preprocess:
                        # One-shot path: simplify the standalone formula with
                        # the placement literals frozen (decode and blocking
                        # clauses reference them after simplification).
                        attempt_cnf, reconstructor, pstats = simplify(
                            attempt_cnf, frozen=encoding.variables.values()
                        )
                        attempt.pre_clauses_removed = pstats.clauses_removed
                        attempt.pre_vars_eliminated = pstats.variables_removed
                        attempt.preprocess_time = pstats.preprocess_time
                    result = fresh_solver.solve(
                        attempt_cnf,
                        conflict_limit=conflict_limit,
                        time_limit=time_limit,
                        model_vars=None if reconstructor is not None else placement_vars,
                    )
                else:
                    result = fresh_solver.solve(
                        conflict_limit=conflict_limit,
                        time_limit=time_limit,
                        model_vars=None if reconstructor is not None else placement_vars,
                    )
                if not consumed_probe:
                    attempt.record_solve(result.stats)
                if pre_stats is not None:
                    # The wrapper flushed (and simplified) the pending
                    # clauses inside solve (probe included); attribute the
                    # absolute delta so even a successful early return
                    # carries the stats.
                    attempt.pre_clauses_removed = (
                        pre_stats.clauses_removed - pre_base[0]
                    )
                    attempt.pre_vars_eliminated = (
                        pre_stats.variables_removed - pre_base[1]
                    )
                    attempt.preprocess_time = (
                        pre_stats.preprocess_time - pre_base[2]
                    )
                if retry_baseline is None:
                    # Sink clause count after the first solve: everything
                    # added past this point is retry work.
                    retry_baseline = self._sink_clause_count(backend, fresh_solver)

                if result.status == "UNKNOWN":
                    attempt.status = "UNKNOWN"
                    if self._out_of_time(start):
                        outcome.timed_out = True
                        return None
                    # Inconclusive bounded attempt: fall through to the next
                    # slack level / II.
                    break
                if result.is_unsat:
                    attempt.status = "UNSAT"
                    self._record_proof(attempt, outcome, backend, fresh_solver)
                    self._log(f"II={ii} slack={slack}: UNSAT "
                              f"({attempt.num_clauses} clauses)")
                    break

                attempt.status = "SAT"
                assert result.model is not None
                model = result.model
                if reconstructor is not None:
                    # Reinstate preprocessor-eliminated variables so the
                    # model satisfies the original, unsimplified formula.
                    # (The incremental wrapper reconstructs internally.)
                    model = reconstructor.extend(model)
                mapping = self._build_mapping(
                    dfg, cgra, ii, encoding.decode(model)
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
                        encoding, mapping, allocation,
                        backend if backend is not None else fresh_solver,
                    )
                    attempt.retry_clauses_added = (
                        self._sink_clause_count(backend, fresh_solver)
                        - retry_baseline
                    )
            # Retire the attempt's constraint group: one root-level unit lets
            # the solver satisfy (and effectively ignore) every guarded
            # clause while learned inference stays available.  The group's
            # variables are don't-cares from here on (every clause over them
            # is guarded by the now-false selector), so pin them false too —
            # otherwise every later solve would re-branch over them.
            if backend is not None:
                self._retire_group(backend, selector)
            # Try the next slack level / II.
        return None

    @staticmethod
    def _retire_group(backend: SolverBackend, selector: int) -> None:
        """Retire a selector-guarded constraint group.

        One bulk submission: the ``¬selector`` unit (which root-satisfies
        every guarded clause) plus a pin for each of the group's variables
        (don't-cares from here on — without the pins every later solve
        would re-branch over them), propagated in a single root sweep.
        Variables the preprocessor already eliminated are gone from the
        solver (and unit-pinning them would be an unsound reference to an
        eliminated variable).
        """
        last_var = backend.num_vars
        retired = backend.retired_vars
        backend.add_clauses(
            chain(
                ([-selector],),
                (
                    [-dead_var]
                    for dead_var in range(selector + 1, last_var + 1)
                    if dead_var not in retired
                ),
            )
        )

    @staticmethod
    def _sink_clause_count(backend: SolverBackend | None, fresh_solver) -> int:
        """Lifetime clause submissions of whichever sink serves the attempt."""
        if backend is not None:
            return backend.stats.clauses_added
        return fresh_solver.clauses_added if fresh_solver is not None else 0

    @staticmethod
    def _record_proof(attempt, outcome, backend, fresh_solver) -> None:
        """Attach the backing DRAT evidence to an UNSAT attempt.

        Backends that log proofs expose ``proof_digest()`` (the internal
        CDCL's running trace digest, or an external solver's digest of its
        last emitted trace); attempts and the outcome record digest and
        path so cached lower bounds stay independently checkable.
        """
        source = backend if backend is not None else fresh_solver
        digest_fn = getattr(source, "proof_digest", None)
        if digest_fn is None:
            return
        digest = digest_fn()
        if digest:
            attempt.proof_digest = digest
        path = getattr(source, "last_proof_path", None) or getattr(
            source, "proof_path", None
        )
        if path:
            outcome.proof_path = str(path)

    @staticmethod
    def _block_overloaded_pe(encoding, mapping: Mapping, allocation, sink) -> int:
        """Forbid the placement combination that overloaded a register file.

        Adds one clause to ``sink`` (the live backend or the attempt's
        solver) saying "not all of these nodes on this PE at these cycles
        again"; the next solve call must produce a mapping that differs on
        the overloaded PE.  Returns the number of clauses added.
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
        if encoding.selector is not None:
            # Guard the blocking clause with the attempt's selector so it is
            # retired together with the rest of the constraint group (tail
            # position keeps the watched literals the same as unguarded).
            literals = literals + [-encoding.selector]
        sink.add_clause(literals)
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
