"""Conflict-driven clause learning (CDCL) SAT solver on a flat clause arena.

This is the production solving engine of the reproduction.  It implements the
standard MiniSat-style architecture:

* two-watched-literal unit propagation with **blocker literals**,
* dedicated **binary and ternary implication lists** (2- and 3-literal
  clauses propagate with zero watch-list traffic — on the mapper's guarded
  incremental encodings, where every at-most-one clause carries a selector
  guard and is therefore ternary, this is the bulk of the formula),
* first-UIP conflict analysis with learned-clause minimisation,
* VSIDS variable activities with exponential decay,
* phase saving,
* Luby-sequence restarts,
* learned-clause database reduction driven by LBD (literals blocks distance),
  with **arena compaction** once enough garbage accumulates.

The solver is **incremental**: the clause database, variable activities,
saved phases and learned clauses all persist across :meth:`CDCLSolver.solve`
calls.  Clauses and variables are added through :meth:`CDCLSolver.add_clause`
/ :meth:`CDCLSolver.add_clauses` and :meth:`CDCLSolver.new_var` /
:meth:`CDCLSolver.new_vars`, and each ``solve`` call takes a list of
assumption literals that are replayed as pseudo-decisions below the real
search (the MiniSat ``solve(assumps)`` interface).  This is what makes the
mapper's iterative loop cheap: retiring one (II, slack) attempt and starting
the next is an assumption flip, not a rebuild.

For convenience ``solve`` also accepts a :class:`repro.sat.cnf.CNF`; passing
one resets the solver and loads the formula, reproducing the classic
one-shot behaviour the test-suite and the ablation benchmarks rely on.

Data layout (unit propagation is the hottest loop, so the layout is flat
integer arrays rather than objects; ``_cdcl.c`` ports this module's search
loop to C over the same layout, see :func:`make_solver`):

* literals are re-encoded as ``2 * var`` (positive) / ``2 * var + 1``
  (negative); truth values live in a literal-indexed array;
* clauses of four or more literals live contiguously in a single **arena**
  (a flat list of literals) and are addressed by an integer *clause ref*
  indexing the parallel header arrays ``offset`` / ``size`` / ``lbd`` /
  ``activity`` / ``learned`` (``size == 0`` marks a deleted clause awaiting
  compaction);
* watch lists hold ``(clause_ref, blocker_lit)`` pairs — a clause whose
  *blocker* literal is already true is skipped without touching the arena;
* binary clauses are stored purely as implications: ``(a, b)`` becomes
  ``¬a → b`` and ``¬b → a`` in per-literal implication lists;
* ternary clauses are stored purely as their three implication entries:
  clause ``(a, b, c)`` is registered in the ternary lists of all three
  negated literals as the pair of remaining literals, so a visit is just
  two truth-value reads and clauses never migrate between lists.

Propagation *reasons* are tagged integers instead of clause objects:
``code & 3`` is ``0`` for an arena ref (``code >> 2``), ``1`` for a binary
clause (the other literal in ``code >> 2``), ``2`` for a ternary clause
(the two other literals bit-packed as ``(a << 32) | (b << 2)``); ``-1``
marks a decision.

The two watched literals of an arena clause are always at positions
``offset`` and ``offset + 1``; when a clause becomes a propagation reason its
implied literal sits at ``offset``.  Deletion detaches the two watch entries
by swap-remove (no ``list.remove`` scans-and-shifts) and marks the header
dead; :meth:`_reduce_learned` compacts the arena once dead literals exceed a
quarter of it, remapping every surviving ref in the watch lists, the clause
lists and the tagged reason codes.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.sat.cnf import CNF, clause_slices, flatten

#: Version tag of the solving core.  The persistent mapping cache
#: (:mod:`repro.search.cache`) folds it into every cache key, so entries
#: computed by an older engine are invalidated the moment the core's
#: semantics-affecting behaviour changes.  Bump it whenever a change can
#: alter *which* mapping (not just how fast) a configuration produces.
SOLVER_VERSION = "flat-arena-1"

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: Reason code for decisions / unforced assignments (``-1 & 3 == 3`` keeps
#: it disjoint from the clause tags).
_NO_REASON = -1

#: Learned clauses longer than this get the full recursive (MiniSat
#: ccmin 2) minimisation; shorter ones use the cheap one-step check.  Long
#: clauses are where deep minimisation pays twice — less analysis work and
#: fewer watch visits on every later conflict — while on short clauses the
#: DFS costs more than it saves.
_DEEP_MINIMISE_THRESHOLD = 200

#: Bit layout of ternary reason codes: ``(other_a << _TERN_SHIFT) |
#: (other_b << 2) | 2``.  30 bits for the low literal supports half a
#: billion variables — far beyond anything this solver will see.
_TERN_SHIFT = 32
_TERN_MASK = (1 << 30) - 1


@dataclass
class SolverStats:
    """Counters describing the work done by a single ``solve`` call."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    solve_time: float = 0.0
    #: Implications delivered by the binary/ternary implication lists (work
    #: that previously went through the watch machinery).
    binary_propagations: int = 0
    #: Watch-list entries skipped because their blocker literal was already
    #: true — satisfied clauses dismissed without touching the arena.
    blocker_skips: int = 0
    #: Size of the clause arena (bytes, nominal 8 bytes per literal slot)
    #: when the call returned.
    arena_bytes: int = 0


@dataclass
class SolverResult:
    """Outcome of a ``solve`` call.

    ``status`` is one of ``"SAT"``, ``"UNSAT"`` or ``"UNKNOWN"`` (the latter
    when a conflict or time budget was exhausted).  ``model`` maps every
    problem variable to a boolean when the status is ``"SAT"`` — or only the
    requested projection when ``solve(model_vars=...)`` was used.
    """

    status: str
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"

    @property
    def is_unsat(self) -> bool:
        return self.status == "UNSAT"


class CDCLSolver:
    """An incremental CDCL SAT solver with VSIDS, restarts and clause deletion."""

    name = "cdcl"

    def __init__(
        self,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        learned_limit_base: int = 4000,
        random_seed: int | None = None,
        initial_phase: bool = False,
        activity_hints: dict[int, float] | None = None,
        phase_hints: dict[int, bool] | None = None,
        proof: "object | None" = None,
    ) -> None:
        self.var_decay = var_decay
        self.clause_decay = clause_decay
        self.restart_base = restart_base
        self.learned_limit_base = learned_limit_base
        self.random_seed = random_seed
        #: Optional :class:`repro.sat.drat.ProofLogger`.  When set, every
        #: learned clause (all 1-UIP derivations are RUP, hence DRAT) and
        #: every database deletion is logged; UNSAT under assumptions logs
        #: the negated assumption cube as its final addition.  Deletions
        #: outside ``_reduce_learned`` (e.g. retire-time simplification) are
        #: deliberately not logged — omitting a deletion only leaves extra
        #: verified clauses in the checker, which is always sound.
        self.proof = proof
        #: Polarity tried first for a variable that has never been assigned.
        #: ``True`` makes the search constructive (useful for placement-style
        #: exactly-one formulas), ``False`` is the classic MiniSat default.
        self.initial_phase = initial_phase
        #: Optional VSIDS warm start: variables with larger values are
        #: branched on first until conflict-driven activity takes over.
        self.activity_hints = activity_hints or {}
        #: Optional per-variable initial polarity (overrides initial_phase).
        self.phase_hints = phase_hints or {}
        self.stats = SolverStats()
        self._reset()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._nvars

    @property
    def num_learned(self) -> int:
        """Learned clauses currently alive in the database."""
        return len(self._learned) + self._num_bin_learned + self._num_tern_learned

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (excludes root units)."""
        return len(self._clauses) + self._num_bin_problem + self._num_tern_problem

    @property
    def arena_bytes(self) -> int:
        """Nominal size of the flat clause stores (8 bytes per literal slot)."""
        ternary_lits = 3 * (self._num_tern_problem + self._num_tern_learned)
        return (len(self._arena) + ternary_lits) * 8

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._nvars += 1
        var = self._nvars
        self._value.extend((_UNASSIGNED, _UNASSIGNED))
        self._level.append(0)
        self._reason.append(_NO_REASON)
        activity = float(self.activity_hints.get(var, 0.0))
        self._activity.append(activity)
        self._phase.append(bool(self.phase_hints.get(var, self.initial_phase)))
        self._watches.append([])
        self._watches.append([])
        self._bins.append([])
        self._bins.append([])
        self._terns.append([])
        self._terns.append([])
        self._gterns.append([])
        self._gterns.append([])
        self._tern_guard.append(-1)
        self._tern_guard.append(-1)
        self._seen.append(False)
        self._heap_count.append(1)
        self._heap_act.append(activity)
        heapq.heappush(self._order, (-activity, var))
        return var

    def new_vars(self, count: int) -> list[int]:
        """Bulk-allocate ``count`` fresh variables (one call, list extends).

        The encoder allocates tens of thousands of variables per attempt;
        growing every per-variable array in one ``extend`` instead of
        ``count`` method calls makes variable creation cheap enough to
        disappear from the encode profile.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        if self.activity_hints or self.phase_hints:
            # Hints need per-variable treatment; fall back to the slow path.
            return [self.new_var() for _ in range(count)]
        start = self._nvars + 1
        self._nvars += count
        variables = list(range(start, self._nvars + 1))
        self._value.extend([_UNASSIGNED] * (2 * count))
        self._level.extend([0] * count)
        self._reason.extend([_NO_REASON] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([self.initial_phase] * count)
        double = 2 * count
        self._watches.extend([[] for _ in range(double)])
        self._bins.extend([[] for _ in range(double)])
        self._terns.extend([[] for _ in range(double)])
        self._gterns.extend([[] for _ in range(double)])
        self._tern_guard.extend([-1] * double)
        self._seen.extend([False] * count)
        self._heap_count.extend([1] * count)
        self._heap_act.extend([0.0] * count)
        # Fresh zero-activity entries are >= every existing heap entry
        # ((-activity, var) with activity >= 0 and strictly growing var), so
        # appending them as leaves preserves the heap invariant without any
        # sifting.
        self._order.extend((-0.0, var) for var in variables)
        return variables

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe so ``num_vars`` is a valid variable."""
        if num_vars > self._nvars:
            self.new_vars(num_vars - self._nvars)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause to the persistent database.

        The clause is simplified against the root-level assignment (MiniSat
        style): literals already false at level 0 are dropped, and a clause
        containing a root-true literal is discarded as satisfied.  Returns
        ``False`` when the formula became unsatisfiable at level 0 (the
        solver then answers ``UNSAT`` forever), ``True`` otherwise.
        """
        if self._unsat:
            return False
        self.clauses_added += 1
        self._backtrack(0)
        lits = self._simplify_external(literals)
        if lits is None:
            return True  # tautology or satisfied at the root level
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], _NO_REASON) or self._propagate() is not None:
                self._unsat = True
                return False
            return True
        self._attach(lits)
        return True

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> bool:
        """Bulk :meth:`add_clause`: one backtrack, batched root propagation.

        The batch arrives flat (see :func:`repro.sat.cnf.flatten`): clause
        ``i`` is the next ``lengths[i]`` entries of ``literals``.

        Semantically equivalent to calling ``add_clause`` per clause, but
        root-level unit propagation is deferred until a subsequent clause
        actually needs an up-to-date assignment (attaching watches on a
        stale-false literal would break the watch invariant), so a batch of
        unit clauses — the mapper retires attempts with exactly such a batch
        — triggers a single propagation sweep instead of one per unit.

        ``trusted=True`` promises every clause is already clean — no zero
        literals, no duplicate or complementary literals within a clause —
        which lets the ingest loop skip the per-literal seen-set (the
        encoder's emitter constructs exactly such clauses).
        Root-level truth filtering still runs; trust only waives the
        *intra-clause* hygiene checks.

        ``guard`` names the selector guard literal (signed, external form)
        shared by the batch's clauses: a ternary clause whose tail literal
        is the guard is routed to the guard-aware implication lists (see
        ``_gterns``), which propagate with a single truth-value read per
        entry and are dismissed wholesale once the attempt is retired.
        """
        clauses = clause_slices(literals, lengths)
        if self._unsat:
            return False
        self._backtrack(0)
        count = 0
        value = self._value
        pending = self._qhead < len(self._trail)
        bins = self._bins
        terns = self._terns
        gterns = self._gterns
        tern_guard = self._tern_guard
        watches = self._watches
        if guard is not None:
            self.ensure_vars(abs(guard))
            guard_internal = self._to_internal(guard)
        else:
            guard_internal = -1
        for clause in clauses:
            count += 1
            if trusted:
                lits = []
                satisfied = False
                for lit in clause:
                    # 2v / 2v+1 encoding straight from the signed literal;
                    # unknown variables surface as an IndexError (zero-cost
                    # when every variable is pre-allocated, as the encoder
                    # guarantees).
                    internal = lit + lit if lit > 0 else 1 - (lit + lit)
                    try:
                        v = value[internal]
                    except IndexError:
                        self.ensure_vars(abs(lit))
                        v = value[internal]
                    if v == _TRUE:
                        satisfied = True
                        break
                    if v == _FALSE:
                        continue
                    lits.append(internal)
                if satisfied:
                    continue
            else:
                maybe = self._simplify_external(clause)
                if maybe is None:
                    continue
                lits = maybe
            length = len(lits)
            if length == 0:
                self.clauses_added += count
                self._unsat = True
                return False
            if length == 1:
                if not self._enqueue(lits[0], _NO_REASON):
                    self.clauses_added += count
                    self._unsat = True
                    return False
                pending = True
                continue
            if pending:
                # Pending units from this batch: flush them and re-simplify
                # so the attached watches sit on non-false literals.
                if self._propagate() is not None:
                    self.clauses_added += count
                    self._unsat = True
                    return False
                pending = False
                lits = self._resimplify_internal(lits)
                if lits is None:
                    continue
                length = len(lits)
                if length == 0:
                    self.clauses_added += count
                    self._unsat = True
                    return False
                if length == 1:
                    if not self._enqueue(lits[0], _NO_REASON):
                        self.clauses_added += count
                        self._unsat = True
                        return False
                    pending = True
                    continue
            # Inlined _attach (problem clauses only) — this loop ingests
            # tens of thousands of clauses per encoding attempt.
            if length == 2:
                first, second = lits
                bins[first ^ 1].append(second)
                bins[second ^ 1].append(first)
                self._num_bin_problem += 1
            elif length == 3:
                # Inlined guarded/plain ternary attach — the encoder pushes
                # tens of thousands of guard-tailed pairs per attempt.
                first, second, third = lits
                if third == guard_internal:
                    slot_a = first ^ 1
                    slot_b = second ^ 1
                    bound_a = tern_guard[slot_a]
                    bound_b = tern_guard[slot_b]
                    if (bound_a == -1 or bound_a == guard_internal) and (
                        bound_b == -1 or bound_b == guard_internal
                    ):
                        tern_guard[slot_a] = guard_internal
                        tern_guard[slot_b] = guard_internal
                        gterns[slot_a].append(second)
                        gterns[slot_b].append(first)
                        self._num_tern_problem += 1
                        continue
                terns[first ^ 1].append((second, third))
                terns[second ^ 1].append((first, third))
                terns[third ^ 1].append((first, second))
                self._num_tern_problem += 1
            else:
                ref = len(self._c_offset)
                self._c_offset.append(len(self._arena))
                self._c_size.append(length)
                self._c_lbd.append(0)
                self._c_act.append(0.0)
                self._c_learned.append(False)
                self._arena.extend(lits)
                first, second = lits[0], lits[1]
                watches[first ^ 1].append((ref, second))
                watches[second ^ 1].append((ref, first))
                self._clauses.append(ref)
        self.clauses_added += count
        if pending and self._propagate() is not None:
            self._unsat = True
            return False
        return True

    def solve(
        self,
        cnf: CNF | None = None,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Decide satisfiability under optional ``assumptions``.

        Without ``cnf`` this is an incremental call on the persistent clause
        database (learned clauses, activities and phases are reused from
        earlier calls).  Passing a ``cnf`` resets the solver and loads the
        formula first — the classic one-shot interface.  ``conflict_limit``
        and ``time_limit`` (seconds) bound the search; when either budget is
        exhausted the result status is ``"UNKNOWN"``.

        ``model_vars`` projects the SAT model onto just those variables —
        the mapper only decodes placement literals, and building the full
        ``{var: bool}`` dict over every variable the persistent solver has
        ever allocated is pure waste on large incremental databases.
        """
        start = time.perf_counter()
        # Fresh per-call stats *before* any work so clause-loading effort is
        # attributed to this call and earlier ``SolverResult`` objects are
        # never mutated after being returned.
        self.stats = SolverStats()
        propagations_start = self._propagations
        bin_props_start = self._bin_propagations
        blocker_skips_start = self._blocker_skips
        if cnf is not None:
            self._reset()
            propagations_start = bin_props_start = blocker_skips_start = 0
            self.ensure_vars(cnf.num_vars)
            self.add_clauses(*flatten(cnf.clauses))
        self._backtrack(0)
        if not self._unsat and self._propagate() is not None:
            self._unsat = True
        if self._unsat:
            if self.proof is not None:
                self._proof_add(())
            self._fill_stats(propagations_start, bin_props_start,
                             blocker_skips_start, start)
            return SolverResult("UNSAT", None, self.stats)

        assumption_lits = []
        for lit in assumptions:
            self.ensure_vars(abs(lit))
            assumption_lits.append(self._to_internal(lit))
        status = self._search(assumption_lits, conflict_limit, time_limit, start)

        self._fill_stats(propagations_start, bin_props_start,
                         blocker_skips_start, start)
        if status == "SAT":
            value = self._value
            if model_vars is not None:
                model = {
                    var: value[var + var] == _TRUE
                    for var in model_vars
                    if 0 < var <= self._nvars
                }
            else:
                model = {
                    var: value[var + var] == _TRUE
                    for var in range(1, self._nvars + 1)
                }
            return SolverResult("SAT", model, self.stats)
        return SolverResult(status, None, self.stats)

    def _fill_stats(
        self, propagations_start: int, bin_props_start: int,
        blocker_skips_start: int, start: float,
    ) -> None:
        self.stats.propagations = self._propagations - propagations_start
        self.stats.binary_propagations = self._bin_propagations - bin_props_start
        self.stats.blocker_skips = self._blocker_skips - blocker_skips_start
        self.stats.arena_bytes = self.arena_bytes
        self.stats.solve_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        """Drop all state: variables, clauses, learned clauses, activities."""
        self._nvars = 0
        #: literal-indexed truth values (index 2v / 2v+1)
        self._value: list[int] = [_UNASSIGNED, _UNASSIGNED]
        self._level: list[int] = [0]
        #: Tagged propagation reasons (see the module docstring).
        self._reason: list[int] = [_NO_REASON]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [self.initial_phase]
        #: (clause_ref, blocker_lit) watch pairs per literal.
        self._watches: list[list[tuple[int, int]]] = [[], []]
        #: Binary implication lists: asserting ``lit`` implies every literal
        #: in ``_bins[lit]``.
        self._bins: list[list[int]] = [[], []]
        #: Ternary lists: asserting ``lit`` makes each ``(o1, o2)`` entry a
        #: two-literal check over the clause's remaining literals.
        self._terns: list[list[tuple[int, int]]] = [[], []]
        #: Guard-aware ternary lists for the mapper's selector-guarded
        #: clauses ``(a, b, ¬s)``: every entry of ``_gterns[lit]`` shares
        #: the single guard literal ``_tern_guard[lit]``, so while the
        #: attempt is live (guard false) a visit is *one* truth-value read,
        #: and once the attempt is retired (guard true at the root) the
        #: whole list is dismissed with one check.  Clauses register in the
        #: two non-guard literals' lists only — the selector's own lists
        #: stay empty, so restarts never sweep the constraint group.
        self._gterns: list[list[int]] = [[], []]
        self._tern_guard: list[int] = [-1, -1]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        #: The flat clause arena (clauses of >= 4 literals) and its parallel
        #: header arrays.
        self._arena: list[int] = []
        self._c_offset: list[int] = []
        self._c_size: list[int] = []
        self._c_lbd: list[int] = []
        self._c_act: list[float] = []
        self._c_learned: list[bool] = []
        #: Dead literal slots in the arena awaiting compaction.
        self._garbage = 0
        #: Arena refs of problem / learned clauses (binary/ternary excluded).
        self._clauses: list[int] = []
        self._learned: list[int] = []
        self._num_bin_problem = 0
        self._num_bin_learned = 0
        self._num_tern_problem = 0
        self._num_tern_learned = 0
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._seen: list[bool] = [False]
        self._order: list[tuple[float, int]] = []
        #: Heap bookkeeping: how many entries each variable currently has in
        #: ``_order`` and the activity recorded by its freshest entry.  A
        #: variable is only re-pushed on backtrack when it has no entry or
        #: its activity changed since the last push — the maximum entry per
        #: unassigned variable therefore always carries the exact current
        #: activity (identical pick order to the push-always scheme, at a
        #: fraction of the heap churn).
        self._heap_count: list[int] = [0]
        self._heap_act: list[float] = [0.0]
        self._unsat = False
        #: Lifetime counters; per-call stats are computed from deltas so
        #: ``add_clause`` between calls never mutates a stats object a
        #: previous ``solve`` already returned.
        self._propagations = 0
        self._bin_propagations = 0
        self._blocker_skips = 0
        #: Lifetime count of ``add_clause`` submissions (the mapper uses the
        #: delta to prove retry rounds add only blocking clauses).
        self.clauses_added = 0

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = abs(lit)
        return 2 * var if lit > 0 else 2 * var + 1

    @staticmethod
    def _to_external(lit: int) -> int:
        return -(lit >> 1) if lit & 1 else lit >> 1

    def _proof_add(self, internal_lits: Sequence[int]) -> None:
        self.proof.add([self._to_external(lit) for lit in internal_lits])  # type: ignore[attr-defined]

    def _proof_delete(self, internal_lits: Sequence[int]) -> None:
        self.proof.delete([self._to_external(lit) for lit in internal_lits])  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def _simplify_external(self, literals: Sequence[int]) -> list[int] | None:
        """DIMACS literals -> simplified internal literals.

        Returns ``None`` when the clause is a tautology or already satisfied
        at the root level; otherwise the deduplicated internal literals with
        root-false ones dropped (possibly empty = root conflict).
        """
        seen: set[int] = set()
        lits: list[int] = []
        value = self._value
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            var = lit if lit > 0 else -lit
            if var > self._nvars:
                self.ensure_vars(var)
                value = self._value
            internal = var + var if lit > 0 else var + var + 1
            if internal ^ 1 in seen:
                return None  # tautology
            if internal in seen:
                continue
            seen.add(internal)
            v = value[internal]
            if v == _TRUE:
                return None  # satisfied at the root level
            if v == _FALSE:
                continue  # root-falsified literal, drop it
            lits.append(internal)
        return lits

    def _resimplify_internal(self, lits: list[int]) -> list[int] | None:
        """Re-check internal literals after a root propagation sweep."""
        out: list[int] = []
        value = self._value
        for lit in lits:
            v = value[lit]
            if v == _TRUE:
                return None
            if v == _FALSE:
                continue
            out.append(lit)
        return out

    def _attach(self, lits: list[int], learned: bool = False, lbd: int = 0) -> int:
        """Attach a simplified clause of two or more literals.

        Binary clauses go to the implication lists and ternary clauses to
        the triple store (both return ref ``-1``); longer clauses are
        appended to the arena and watched on their first two literals, each
        watch carrying the *other* watched literal as its initial blocker.
        """
        length = len(lits)
        if length == 2:
            first, second = lits
            self._bins[first ^ 1].append(second)
            self._bins[second ^ 1].append(first)
            if learned:
                self._num_bin_learned += 1
            else:
                self._num_bin_problem += 1
            return -1
        if length == 3:
            first, second, third = lits
            self._terns[first ^ 1].append((second, third))
            self._terns[second ^ 1].append((first, third))
            self._terns[third ^ 1].append((first, second))
            if learned:
                self._num_tern_learned += 1
            else:
                self._num_tern_problem += 1
            return -1
        ref = len(self._c_offset)
        self._c_offset.append(len(self._arena))
        self._c_size.append(length)
        self._c_lbd.append(lbd)
        self._c_act.append(0.0)
        self._c_learned.append(learned)
        self._arena.extend(lits)
        first, second = lits[0], lits[1]
        self._watches[first ^ 1].append((ref, second))
        self._watches[second ^ 1].append((ref, first))
        if learned:
            self._learned.append(ref)
        else:
            self._clauses.append(ref)
        return ref

    def _attach_guarded_ternary(self, first: int, second: int, guard: int) -> bool:
        """Register ``(first, second, guard)`` in the guard-aware lists.

        Returns ``False`` (caller falls back to the plain ternary scheme)
        when either literal's guarded list is already bound to a different
        guard — possible only when a caller mixes constraint groups over
        shared variables, which the mapper's disjoint attempt blocks never
        do.
        """
        tern_guard = self._tern_guard
        slot_a = first ^ 1
        slot_b = second ^ 1
        for slot in (slot_a, slot_b):
            bound = tern_guard[slot]
            if bound != -1 and bound != guard:
                return False
        tern_guard[slot_a] = guard
        tern_guard[slot_b] = guard
        self._gterns[slot_a].append(second)
        self._gterns[slot_b].append(first)
        return True

    def _detach(self, ref: int) -> None:
        """Swap-remove the clause's two watch entries (no ``list.remove``)."""
        offset = self._c_offset[ref]
        arena = self._arena
        for watched in (arena[offset], arena[offset + 1]):
            watch_list = self._watches[watched ^ 1]
            for index, entry in enumerate(watch_list):
                if entry[0] == ref:
                    watch_list[index] = watch_list[-1]
                    watch_list.pop()
                    break

    def _compact_arena(self) -> None:
        """Rebuild the arena without dead clauses, remapping every ref.

        Refs appear in three places: the problem/learned clause lists, the
        watch lists, and ref-tagged reason codes of assigned variables
        (reasons are never deleted — locked clauses survive reduction — so
        every surviving reference has a remap target).  The ternary triple
        store never shrinks (ternary clauses are kept like binaries), so
        only arena refs are remapped.
        """
        old_arena = self._arena
        old_offset = self._c_offset
        old_size = self._c_size
        remap = [-1] * len(old_offset)
        new_arena: list[int] = []
        new_offset: list[int] = []
        new_size: list[int] = []
        new_lbd: list[int] = []
        new_act: list[float] = []
        new_learned: list[bool] = []
        for ref in range(len(old_offset)):
            size = old_size[ref]
            if size == 0:
                continue
            remap[ref] = len(new_offset)
            offset = old_offset[ref]
            new_offset.append(len(new_arena))
            new_size.append(size)
            new_lbd.append(self._c_lbd[ref])
            new_act.append(self._c_act[ref])
            new_learned.append(self._c_learned[ref])
            new_arena.extend(old_arena[offset:offset + size])
        self._arena = new_arena
        self._c_offset = new_offset
        self._c_size = new_size
        self._c_lbd = new_lbd
        self._c_act = new_act
        self._c_learned = new_learned
        self._garbage = 0
        self._clauses = [remap[ref] for ref in self._clauses]
        self._learned = [remap[ref] for ref in self._learned]
        for index, watch_list in enumerate(self._watches):
            self._watches[index] = [
                (remap[ref], blocker) for ref, blocker in watch_list
            ]
        reason = self._reason
        for lit in self._trail:
            var = lit >> 1
            code = reason[var]
            if code >= 0 and code & 3 == 0:
                reason[var] = remap[code >> 2] << 2

    def _clause_lits(self, ref: int) -> list[int]:
        """The literals of an arena clause (internal encoding)."""
        offset = self._c_offset[ref]
        return self._arena[offset:offset + self._c_size[ref]]

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: int) -> bool:
        value = self._value
        current = value[lit]
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        var = lit >> 1
        value[lit] = _TRUE
        value[lit ^ 1] = _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = (lit & 1) == 0
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _propagate(self) -> tuple[int, list[int]] | None:
        """Unit propagation; returns ``(ref, literals)`` of a conflicting
        clause (``ref == -1`` for a binary/ternary clause) or ``None``."""
        value = self._value
        watches = self._watches
        bins = self._bins
        terns = self._terns
        gterns = self._gterns
        tern_guard = self._tern_guard
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        trail = self._trail
        level = self._level
        reason = self._reason
        phase = self._phase
        trail_lim_len = len(self._trail_lim)
        propagations = 0
        bin_propagations = 0
        blocker_skips = 0

        qhead = self._qhead
        conflict: tuple[int, list[int]] | None = None
        while conflict is None and qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            false_lit = lit ^ 1
            # Binary implications: one truth-value read per clause.
            implied_list = bins[lit]
            if implied_list:
                for implied in implied_list:
                    implied_value = value[implied]
                    if implied_value == _TRUE:
                        continue
                    if implied_value == _FALSE:
                        conflict = (-1, [implied, false_lit])
                        break
                    var = implied >> 1
                    value[implied] = _TRUE
                    value[implied ^ 1] = _FALSE
                    level[var] = trail_lim_len
                    reason[var] = (false_lit << 2) | 1
                    phase[var] = (implied & 1) == 0
                    trail.append(implied)
                    bin_propagations += 1
                if conflict is not None:
                    break
            # Ternary clauses: two truth-value reads, a static read-only
            # list (no watch migration, no list rebuild).
            tern_list = terns[lit]
            if tern_list:
                for other1, other2 in tern_list:
                    value1 = value[other1]
                    if value1 == _TRUE:
                        continue
                    value2 = value[other2]
                    if value2 == _TRUE:
                        continue
                    if value1 == _FALSE:
                        if value2 == _FALSE:
                            conflict = (-1, [other1, other2, false_lit])
                            break
                        var = other2 >> 1
                        value[other2] = _TRUE
                        value[other2 ^ 1] = _FALSE
                        level[var] = trail_lim_len
                        reason[var] = (other1 << 32) | (false_lit << 2) | 2
                        phase[var] = (other2 & 1) == 0
                        trail.append(other2)
                        bin_propagations += 1
                    elif value2 == _FALSE:
                        var = other1 >> 1
                        value[other1] = _TRUE
                        value[other1 ^ 1] = _FALSE
                        level[var] = trail_lim_len
                        reason[var] = (other2 << 32) | (false_lit << 2) | 2
                        phase[var] = (other1 & 1) == 0
                        trail.append(other1)
                        bin_propagations += 1
                if conflict is not None:
                    break
            # Guard-aware ternary clauses: while the attempt is live the
            # guard is false and every entry is effectively a binary
            # implication (one truth-value read); once the attempt is
            # retired the guard is root-true and the whole list is
            # dismissed with a single check.
            gtern_list = gterns[lit]
            if gtern_list:
                guard = tern_guard[lit]
                guard_value = value[guard]
                if guard_value == _FALSE:
                    for other in gtern_list:
                        other_value = value[other]
                        if other_value == _TRUE:
                            continue
                        if other_value == _FALSE:
                            conflict = (-1, [other, guard, false_lit])
                            break
                        var = other >> 1
                        value[other] = _TRUE
                        value[other ^ 1] = _FALSE
                        level[var] = trail_lim_len
                        reason[var] = (guard << 32) | (false_lit << 2) | 2
                        phase[var] = (other & 1) == 0
                        trail.append(other)
                        bin_propagations += 1
                    if conflict is not None:
                        break
                elif guard_value == _UNASSIGNED:
                    # Pre-assumption (root) propagation: the clauses can
                    # only force the guard itself, after which the whole
                    # group is satisfied.
                    for other in gtern_list:
                        if value[other] == _FALSE:
                            var = guard >> 1
                            value[guard] = _TRUE
                            value[guard ^ 1] = _FALSE
                            level[var] = trail_lim_len
                            reason[var] = (other << 32) | (false_lit << 2) | 2
                            phase[var] = (guard & 1) == 0
                            trail.append(guard)
                            bin_propagations += 1
                            break
            # Long clauses: (ref, blocker) watch pairs rebuilt with plain
            # appends — a true blocker keeps the entry with zero arena work.
            # The skip path is the hottest code in the solver, so it carries
            # no counters: skips are derived per literal as "kept entries
            # minus the (rare) non-skip keeps".
            watch_list = watches[lit]
            if not watch_list:
                continue
            # Clean-prefix scan: while blockers keep dismissing entries the
            # list needs no rebuild at all — the common case once the search
            # has satisfied most clauses along the current trail.
            count = len(watch_list)
            index = 0
            while index < count:
                if value[watch_list[index][1]] == _TRUE:
                    index += 1
                else:
                    break
            if index == count:
                blocker_skips += count
                continue
            kept: list[tuple[int, int]] = watch_list[:index]
            keep = kept.append
            nonskip_keeps = 0
            while index < count:
                entry = watch_list[index]
                index += 1
                blocker = entry[1]
                if value[blocker] == _TRUE:
                    keep(entry)
                    continue
                ref = entry[0]
                offset = offsets[ref]
                # Ensure the falsified literal sits at position offset+1.
                first = arena[offset]
                if first == false_lit:
                    first = arena[offset + 1]
                    arena[offset] = first
                    arena[offset + 1] = false_lit
                if value[first] == _TRUE:
                    # Satisfied by the other watch: keep, promote it to
                    # blocker so the next visit skips the arena entirely.
                    keep((ref, first))
                    nonskip_keeps += 1
                    continue
                # Search for a replacement watch.
                end = offset + sizes[ref]
                position = offset + 2
                found = False
                while position < end:
                    candidate = arena[position]
                    if value[candidate] != _FALSE:
                        arena[offset + 1] = candidate
                        arena[position] = false_lit
                        watches[candidate ^ 1].append((ref, first))
                        found = True
                        break
                    position += 1
                if found:
                    continue
                # Clause is unit or conflicting on ``first``.
                keep((ref, first))
                nonskip_keeps += 1
                if value[first] == _FALSE:
                    conflict = (ref, arena[offset:end])
                    blocker_skips += len(kept) - nonskip_keeps
                    # Keep the unvisited tail of the watch list verbatim.
                    kept.extend(watch_list[index:])
                    break
                var = first >> 1
                value[first] = _TRUE
                value[first ^ 1] = _FALSE
                level[var] = trail_lim_len
                reason[var] = ref << 2
                phase[var] = (first & 1) == 0
                trail.append(first)
            if conflict is None:
                blocker_skips += len(kept) - nonskip_keeps
            watches[lit] = kept

        self._qhead = len(trail) if conflict is not None else qhead
        self._propagations += propagations
        self._bin_propagations += bin_propagations
        self._blocker_skips += blocker_skips
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _analyze(
        self, conflict_ref: int, conflict_lits: list[int]
    ) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (internal literals, asserting literal
        first), the backtrack level and the clause's LBD.
        """
        learned: list[int] = [0]
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        var_inc = self._var_inc
        counter = 0
        lit = -1
        trail_index = len(trail) - 1
        current_level = self._decision_level()

        # The resolution loop never materialises reason clauses: the
        # conflict clause arrives as a list, binary/ternary reasons unpack
        # from their tagged codes, and arena reasons are walked in place.
        others: tuple[int, ...] | list[int] = conflict_lits
        if conflict_ref >= 0 and self._c_learned[conflict_ref]:
            self._bump_clause(conflict_ref)
        while True:
            for other in others:
                var = other >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                # Inlined _bump_var (hot): only the rare rescale leaves the
                # fast path.
                bumped = activity[var] + var_inc
                activity[var] = bumped
                if bumped > 1e100:
                    self._rescale_var_activity()
                    var_inc = self._var_inc
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Find the next literal on the trail to resolve on.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            lit = trail[trail_index]
            trail_index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            code = self._reason[var]
            assert code != _NO_REASON
            tag = code & 3
            if tag == 0:
                ref = code >> 2
                if self._c_learned[ref]:
                    self._bump_clause(ref)
                offset = offsets[ref]
                # Implied literal sits at ``offset``; resolve on the rest.
                others = arena[offset + 1:offset + sizes[ref]]
            elif tag == 1:
                others = (code >> 2,)
            else:
                others = (code >> _TERN_SHIFT, (code >> 2) & _TERN_MASK)
        learned[0] = lit ^ 1

        # Learned clause minimisation (MiniSat ccmin 2): a literal is
        # dropped when *every* resolution path from its reason terminates in
        # already-seen or root literals — shorter learned clauses mean
        # fewer watch visits on every future conflict.  ``_lit_redundant``
        # memoises successful sub-derivations by extending ``seen``;
        # ``to_clear`` collects everything to unmark afterwards.
        to_clear = list(learned)
        reduced = [learned[0]]
        if len(learned) > _DEEP_MINIMISE_THRESHOLD:
            abstract_levels = 0
            for other in learned[1:]:
                abstract_levels |= 1 << (level[other >> 1] & 31)
            for other in learned[1:]:
                if not self._lit_redundant(other, abstract_levels, to_clear):
                    reduced.append(other)
        else:
            for other in learned[1:]:
                if not self._redundant(other):
                    reduced.append(other)
        learned = reduced

        for other in to_clear:
            seen[other >> 1] = False

        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_index = 1
            max_level = level[learned[1] >> 1]
            for position in range(2, len(learned)):
                lit_level = level[learned[position] >> 1]
                if lit_level > max_level:
                    max_level = lit_level
                    max_index = position
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backtrack_level = max_level

        levels = {level[other >> 1] for other in learned}
        return learned, backtrack_level, len(levels)

    def _lit_redundant(self, lit: int, abstract_levels: int, to_clear: list[int]) -> bool:
        """Deep redundancy test for clause minimisation.

        Walks the implication graph below ``lit``: the literal is redundant
        when every path reaches a marked (``seen``) or root-level literal.
        Any literal whose decision level is outside ``abstract_levels``
        (a 32-bit Bloom filter of the learned clause's levels) can never be
        absorbed, so the walk fails fast.  Successful walks leave their
        marks in ``seen`` (memoisation); failed walks undo exactly the
        marks they added.
        """
        reason = self._reason
        seen = self._seen
        level = self._level
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        stack = [lit]
        marked_from = len(to_clear)
        while stack:
            current = stack.pop()
            code = reason[current >> 1]
            if code == _NO_REASON:
                for undo in to_clear[marked_from:]:
                    seen[undo >> 1] = False
                del to_clear[marked_from:]
                return False
            tag = code & 3
            if tag == 0:
                ref = code >> 2
                offset = offsets[ref]
                others = arena[offset + 1:offset + sizes[ref]]
            elif tag == 1:
                others = (code >> 2,)
            else:
                others = (code >> _TERN_SHIFT, (code >> 2) & _TERN_MASK)
            failed = False
            for other in others:
                var = other >> 1
                if seen[var] or level[var] == 0:
                    continue
                if reason[var] == _NO_REASON or not (
                    abstract_levels & (1 << (level[var] & 31))
                ):
                    failed = True
                    break
                seen[var] = True
                to_clear.append(other)
                stack.append(other)
            if failed:
                for undo in to_clear[marked_from:]:
                    seen[undo >> 1] = False
                del to_clear[marked_from:]
                return False
        return True

    def _redundant(self, lit: int) -> bool:
        """Cheap (non-recursive) redundancy check for clause minimisation."""
        code = self._reason[lit >> 1]
        if code == _NO_REASON:
            return False
        seen = self._seen
        level = self._level
        this_var = lit >> 1
        tag = code & 3
        if tag == 0:
            ref = code >> 2
            offset = self._c_offset[ref]
            arena = self._arena
            for position in range(offset, offset + self._c_size[ref]):
                var = arena[position] >> 1
                if var == this_var:
                    continue
                if not seen[var] and level[var] != 0:
                    return False
            return True
        if tag == 1:
            other_var = (code >> 2) >> 1
            return seen[other_var] or level[other_var] == 0
        for other in (code >> _TERN_SHIFT, (code >> 2) & _TERN_MASK):
            var = other >> 1
            if not seen[var] and level[var] != 0:
                return False
        return True

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------
    def _rescale_var_activity(self) -> None:
        for index in range(1, self._nvars + 1):
            self._activity[index] *= 1e-100
        for index in range(self._nvars + 1):
            self._heap_act[index] *= 1e-100
        self._order = [(-self._activity[var], var) for _, var in self._order]
        heapq.heapify(self._order)
        self._var_inc *= 1e-100

    def _decay_var_activity(self) -> None:
        self._var_inc /= self.var_decay

    def _bump_clause(self, ref: int) -> None:
        activities = self._c_act
        activities[ref] += self._cla_inc
        if activities[ref] > 1e20:
            for learned_ref in self._learned:
                activities[learned_ref] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self.clause_decay

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        order = self._order
        value = self._value
        activity = self._activity
        reason = self._reason
        heap_count = self._heap_count
        heap_act = self._heap_act
        push = heapq.heappush
        for lit in self._trail[boundary:]:
            var = lit >> 1
            value[lit] = _UNASSIGNED
            value[lit ^ 1] = _UNASSIGNED
            reason[var] = _NO_REASON
            # Re-push only when the variable has no live heap entry or its
            # activity moved since the freshest push — the heap's maximum
            # entry per variable always carries the exact current activity.
            current = activity[var]
            if heap_count[var] == 0 or heap_act[var] != current:
                push(order, (-current, var))
                heap_count[var] += 1
                heap_act[var] = current
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _pick_branch_literal(self) -> int | None:
        order = self._order
        value = self._value
        phase = self._phase
        heap_count = self._heap_count
        heap_act = self._heap_act
        while order:
            priority, var = heapq.heappop(order)
            heap_count[var] -= 1
            if -priority == heap_act[var]:
                # The variable's *freshest* entry was just consumed; any
                # remaining duplicates carry stale (lower) priorities, so
                # force the next backtrack to push a fresh exact entry.
                heap_act[var] = -1.0
            if value[var + var] == _UNASSIGNED:
                return var + var if phase[var] else var + var + 1
        # The heap drained past its stale entries.  Rebuild it once from the
        # unassigned variables (O(n) heapify) instead of linearly rescanning
        # the whole variable universe on every subsequent decision.
        activity = self._activity
        heap_act = self._heap_act
        rebuilt = []
        for var in range(1, self._nvars + 1):
            heap_count[var] = 0
            if value[var + var] == _UNASSIGNED:
                rebuilt.append((-activity[var], var))
                heap_count[var] = 1
                heap_act[var] = activity[var]
        if not rebuilt:
            return None
        heapq.heapify(rebuilt)
        self._order = rebuilt
        _, var = heapq.heappop(rebuilt)
        heap_count[var] -= 1
        return var + var if phase[var] else var + var + 1

    # ------------------------------------------------------------------
    # Clause database reduction
    # ------------------------------------------------------------------
    def _reduce_learned(self) -> None:
        lbds = self._c_lbd
        activities = self._c_act
        self._learned.sort(key=lambda ref: (lbds[ref], -activities[ref]))
        keep = len(self._learned) // 2
        removable = self._learned[keep:]
        del self._learned[keep:]
        locked: set[int] = set()
        reason = self._reason
        for lit in self._trail:
            code = reason[lit >> 1]
            if code >= 0 and code & 3 == 0:
                locked.add(code >> 2)
        sizes = self._c_size
        for ref in removable:
            if ref in locked or lbds[ref] <= 2:
                self._learned.append(ref)
                continue
            if self.proof is not None:
                self._proof_delete(self._clause_lits(ref))
            self._detach(ref)
            self._garbage += sizes[ref]
            sizes[ref] = 0
            self.stats.deleted_clauses += 1
        # Compact once dead slots exceed a quarter of the arena: rebuilding
        # watch refs is O(total watches), so earn it first.
        if self._garbage and self._garbage * 4 > len(self._arena):
            self._compact_arena()

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def _search(
        self,
        assumptions: list[int],
        conflict_limit: int | None,
        time_limit: float | None,
        start_time: float,
    ) -> str:
        restart_conflicts = self.restart_base * _luby(self.stats.restarts + 1)
        conflicts_since_restart = 0
        learned_limit = self.learned_limit_base
        # Learned ternaries that carry the negation of an assumption (the
        # mapper's attempt guards end up in every learned clause) join the
        # guard-aware lists too.
        assumption_guards = {lit ^ 1 for lit in assumptions}

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._unsat = True
                    if self.proof is not None:
                        self._proof_add(())
                    return "UNSAT"
                learned, backtrack_level, lbd = self._analyze(*conflict)
                if self.proof is not None:
                    self._proof_add(learned)
                self._backtrack(backtrack_level)
                length = len(learned)
                if length == 1:
                    self._enqueue(learned[0], _NO_REASON)
                else:
                    self.stats.learned_clauses += 1
                    if length == 2:
                        self._attach(learned, learned=True, lbd=lbd)
                        self._enqueue(learned[0], (learned[1] << 2) | 1)
                    elif length == 3:
                        guard = -1
                        if learned[1] in assumption_guards:
                            other, guard = learned[2], learned[1]
                        elif learned[2] in assumption_guards:
                            other, guard = learned[1], learned[2]
                        if guard != -1 and self._attach_guarded_ternary(
                            learned[0], other, guard
                        ):
                            self._num_tern_learned += 1
                        else:
                            self._attach(learned, learned=True, lbd=lbd)
                        self._enqueue(
                            learned[0],
                            (learned[1] << _TERN_SHIFT) | (learned[2] << 2) | 2,
                        )
                    else:
                        ref = self._attach(learned, learned=True, lbd=lbd)
                        self._enqueue(learned[0], ref << 2)
                self._decay_var_activity()
                self._decay_clause_activity()

                if conflict_limit is not None and self.stats.conflicts >= conflict_limit:
                    return "UNKNOWN"
                if time_limit is not None and (self.stats.conflicts & 127) == 0:
                    if time.perf_counter() - start_time > time_limit:
                        return "UNKNOWN"
                continue

            # No conflict: maybe restart / reduce / decide.
            if conflicts_since_restart >= restart_conflicts:
                self.stats.restarts += 1
                conflicts_since_restart = 0
                restart_conflicts = self.restart_base * _luby(self.stats.restarts + 1)
                # Restarts reshuffle *decisions*; the assumption prefix is
                # replayed identically every time, so keep its levels (and
                # their propagation closure) in place.
                self._backtrack(min(self._decision_level(), len(assumptions)))

            if len(self._learned) > learned_limit:
                self._reduce_learned()
                learned_limit += self.learned_limit_base // 2

            if time_limit is not None and time.perf_counter() - start_time > time_limit:
                return "UNKNOWN"

            # Assumption handling: replay any assumption not yet satisfied.
            next_decision: int | None = None
            level = self._decision_level()
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._value[lit]
                if value == _FALSE:
                    # Unsatisfiable *under the assumptions* (the database
                    # itself stays consistent for future calls).  The proof
                    # records the negated cube: it is RUP with respect to
                    # the formula plus the learned clauses logged so far,
                    # and a checker invoked with the cube as extra units
                    # closes the trace with an empty-clause RUP check.
                    if self.proof is not None:
                        self._proof_add([a ^ 1 for a in assumptions])
                    return "UNSAT"
                if value == _TRUE:
                    self._trail_lim.append(len(self._trail))
                    continue
                next_decision = lit
            if next_decision is None:
                next_decision = self._pick_branch_literal()
                if next_decision is None:
                    return "SAT"

            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self._decision_level()
            )
            self._enqueue(next_decision, _NO_REASON)

    # ------------------------------------------------------------------
    # Debug / test support
    # ------------------------------------------------------------------
    def debug_check_invariants(self) -> None:
        """Assert the arena/watch/implication-list invariants (tests, slow).

        * every live arena clause is watched exactly once from each of its
          first two literals, and nowhere else;
        * every watch entry refers to a live clause and the watched literal
          really is one of the clause's first two;
        * binary implication lists are symmetric (``b in bins[¬a]`` iff
          ``a in bins[¬b]``), with multiplicity;
        * every ternary triple is registered exactly once from each of its
          three literals, with consistent "other literal" pairs.
        """
        live = {
            ref for ref in range(len(self._c_offset)) if self._c_size[ref] > 0
        }
        expected: dict[tuple[int, int], int] = {}
        for ref in live:
            offset = self._c_offset[ref]
            for watched in (self._arena[offset], self._arena[offset + 1]):
                key = (ref, watched ^ 1)
                expected[key] = expected.get(key, 0) + 1
        found: dict[tuple[int, int], int] = {}
        for lit, watch_list in enumerate(self._watches):
            for ref, _blocker in watch_list:
                assert ref in live, f"watch entry for dead clause ref {ref}"
                key = (ref, lit)
                found[key] = found.get(key, 0) + 1
        assert expected == found, (
            f"watch tables diverge from arena: missing={expected.keys() - found.keys()} "
            f"spurious={found.keys() - expected.keys()}"
        )
        pair_counts: dict[tuple[int, int], int] = {}
        for lit, implied_list in enumerate(self._bins):
            for implied in implied_list:
                # Asserting ``lit`` implies ``implied``: clause (¬lit, implied).
                clause = tuple(sorted((lit ^ 1, implied)))
                pair_counts[clause] = pair_counts.get(clause, 0) + 1
        for clause, count in pair_counts.items():
            assert count % 2 == 0, f"asymmetric binary clause {clause}"
        tern_counts: dict[tuple[int, ...], int] = {}
        for lit, tern_list in enumerate(self._terns):
            for other1, other2 in tern_list:
                clause = tuple(sorted((lit ^ 1, other1, other2)))
                tern_counts[clause] = tern_counts.get(clause, 0) + 1
        for clause, count in tern_counts.items():
            assert count % 3 == 0, (
                f"ternary clause {clause} registered {count} times (want 3k)"
            )
        gtern_counts: dict[tuple[int, ...], int] = {}
        for lit, gtern_list in enumerate(self._gterns):
            guard = self._tern_guard[lit]
            assert guard != -1 or not gtern_list, (
                f"guarded entries without a guard on literal {lit}"
            )
            for other in gtern_list:
                clause = tuple(sorted((lit ^ 1, other, guard)))
                gtern_counts[clause] = gtern_counts.get(clause, 0) + 1
        for clause, count in gtern_counts.items():
            assert count % 2 == 0, (
                f"guarded ternary {clause} registered {count} times (want 2k)"
            )


def make_solver(**kwargs) -> "CDCLSolver":
    """A fresh CDCL engine: the native core when it loads, else :class:`CDCLSolver`.

    This is the one place the engine is chosen.  Both engines take the same
    keyword arguments and follow the same search path, so the choice never
    changes a result, only its speed; :func:`repro.sat.native.status`
    reports which one is in use and, on fallback, why.
    """
    from repro.sat import native  # local import: native imports this module

    if native.load() is not None:
        return native.NativeCDCLSolver(**kwargs)  # type: ignore[return-value]
    return CDCLSolver(**kwargs)


def _luby(index: int) -> int:
    """The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, …  (1-based index)."""
    if index < 1:
        raise ValueError(f"Luby index must be >= 1, got {index}")
    while True:
        k = index.bit_length()
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index = index - (1 << (k - 1)) + 1
