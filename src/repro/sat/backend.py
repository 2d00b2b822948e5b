"""The mapper's SAT solver: incremental CDCL running in the native core.

:class:`CDCLBackend` drives the MiniSat-style engine in ``_cdcl.c``
(two-watched-literal propagation with blocker literals, binary and ternary
implication lists, first-UIP learning with clause minimisation, VSIDS,
phase saving, Luby restarts, LBD-driven learned-clause reduction with arena
compaction) through the declarations in :mod:`repro.sat.native`.  Its calls
follow the incremental shape of IPASIR (add clauses, solve under assumed
literals, read the model): variables and clauses accumulate over the
solver's life, and every ``solve`` decides the current clause set under a
cube of assumption literals, with learned clauses, activities and saved
phases carried into the next call.  The mapper builds one per (II, slack) attempt
and re-solves it after every register-allocation rejection.

Creating one builds the core on first use and raises
:class:`BackendUnavailableError` when it cannot be built or loaded.  The
core (and :mod:`ctypes`) is imported then, not with this module: a process
that never solves does not pay for it, and ``python -m repro.sat.native``
must be the first to load it.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Iterable, Sequence

from repro.sat.cnf import CNF, flatten
from repro.sat.drat import ProofLogger
from repro.sat.solver import SolverResult, SolverStats

#: Variables must stay below this: ternary reason codes pack internal
#: literals into 30 bits (see ``TERN_MASK`` in ``_cdcl.c``).
MAX_VARS = 1 << 29

_STATUS_NAMES = {10: "SAT", 20: "UNSAT", 0: "UNKNOWN"}
_PROOF_ADD = 1
#: Largest conflict budget passed to the core (effectively unbounded).
_MAX_CONFLICTS = 1 << 62


class BackendUnavailableError(RuntimeError):
    """The solver cannot run here: the native core cannot be built or loaded.

    :func:`repro.sat.native.load` raises it; ``binary`` names the C
    compiler, ``reason`` says what failed and ``hint`` how to fix it.  The
    CLI surfaces it as a one-line error.
    """

    def __init__(self, binary: str, hint: str = "", reason: str = "not found") -> None:
        self.binary = binary
        self.hint = hint
        self.reason = reason
        message = f"solver backend unavailable: {binary!r} {reason}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


def _address(values: array) -> int:
    return values.buffer_info()[0]


def _int_buffer(values) -> array:
    """``values`` as a C int array, without a copy when it already is one."""
    if type(values) is array and values.typecode == "i":
        return values
    return array("i", values)


def _literals(values) -> array:
    """``values`` as a C int array, rejecting variables the core cannot hold."""
    lits = array("i", values)
    if lits and (max(lits) >= MAX_VARS or min(lits) <= -MAX_VARS):
        raise ValueError(f"variables must be below {MAX_VARS}")
    return lits


class CDCLBackend:
    """An incremental CDCL solver whose search runs in the native core.

    ``proof_path`` names a file to stream a DRAT trace to (see
    :mod:`repro.sat.drat`); ``proof`` hands over an existing
    :class:`ProofLogger` instead, such as an in-memory one.  Every learned
    clause (a RUP, hence DRAT, derivation) and every database deletion is
    logged, and an UNSAT answer under assumptions logs the negated
    assumption cube as its final addition.

    ``var_decay`` and ``clause_decay`` are the VSIDS and clause-activity
    decay factors, ``restart_base`` the Luby restart unit (conflicts) and
    ``learned_limit_base`` the learned-clause count that triggers the first
    database reduction.  ``initial_phase`` is the polarity tried first for
    a variable never assigned (``True`` makes the search constructive,
    useful on exactly-one placement formulas; ``False`` is MiniSat's
    default).  The search is deterministic.

    ``stats`` holds the counters of the latest ``solve`` call.
    """

    def __init__(
        self,
        proof_path: str | None = None,
        *,
        proof: ProofLogger | None = None,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        learned_limit_base: int = 4000,
        initial_phase: bool = False,
    ) -> None:
        from repro.sat import native  # local import: see the module docstring

        lib = native.load()
        self._lib = lib
        self.proof_path = proof_path
        self.proof = ProofLogger(proof_path) if proof_path is not None else proof
        self.stats = SolverStats()
        self._info = native.SolverInfo()
        self._handle = lib.cdcl_new(
            float(var_decay), float(clause_decay), int(restart_base),
            int(learned_limit_base), int(bool(initial_phase)),
            int(self.proof is not None),
        )

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        if handle:
            self._handle = None
            self._lib.cdcl_free(handle)

    def __reduce__(self):
        raise TypeError("a native solver cannot be pickled or copied")

    def close(self) -> None:
        """Close the DRAT trace, if one is being written."""
        if self.proof is not None:
            self.proof.close()

    def proof_digest(self) -> str | None:
        """Running SHA-256 over the DRAT trace emitted so far."""
        if self.proof is None or self.proof.additions == 0:
            return None
        return self.proof.digest()

    def _read_info(self):
        # ctypes passes the structure by reference (its argtype is a
        # pointer to it).
        self._lib.cdcl_info_get(self._handle, self._info)
        return self._info

    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._read_info().num_vars

    @property
    def num_learned(self) -> int:
        """Learned clauses currently alive in the database."""
        return self._read_info().num_learned

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (excludes root units)."""
        return self._read_info().num_clauses

    @property
    def arena_bytes(self) -> int:
        """Nominal size of the flat clause stores (8 bytes per literal slot)."""
        return self._read_info().arena_bytes

    @property
    def clauses_added(self) -> int:
        """Lifetime count of clause submissions."""
        return self._read_info().clauses_added

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        return self.new_vars(1)[0]

    def new_vars(self, count: int) -> list[int]:
        """Bulk-allocate ``count`` fresh variables."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        if self.num_vars + count >= MAX_VARS:
            raise ValueError(f"variables must be below {MAX_VARS}")
        first = self._lib.cdcl_new_vars(self._handle, count)
        return list(range(first, first + count))

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe so ``num_vars`` is a valid variable."""
        current = self.num_vars
        if num_vars > current:
            self.new_vars(num_vars - current)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause to the persistent database.

        The clause is simplified against the root-level assignment (MiniSat
        style): literals already false at level 0 are dropped, and a clause
        containing a root-true literal is discarded as satisfied.  Returns
        ``False`` when the formula became unsatisfiable at level 0 (the
        solver then answers ``UNSAT`` forever), ``True`` otherwise.
        """
        lits = _literals(literals)
        done = self._lib.cdcl_add_clause(self._handle, _address(lits), len(lits))
        if done < 0:
            raise ValueError("literal 0 is not allowed in a clause")
        return bool(done)

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
        ``array('i')`` buffers reach the core without a copy; the core vets
        the lengths and the variable range before it ingests anything.
        Root-level unit propagation is deferred until a later clause of the
        batch needs an up-to-date assignment, so a batch of units costs
        one propagation sweep.

        ``trusted=True`` promises every clause is already clean (no zero,
        duplicate or complementary literals within a clause; the encoder's
        emitter builds only such clauses), which skips those checks.
        Root-level truth filtering still runs.

        ``guard`` names the selector guard literal (signed) shared by the
        batch: a ternary clause whose tail literal is the guard is routed
        to the guard-aware implication lists, which propagate with one
        truth-value read per entry and are dismissed wholesale once the
        guard is satisfied.
        """
        lits, lens = _int_buffer(literals), _int_buffer(lengths)
        if guard is not None and not -MAX_VARS < guard < MAX_VARS:
            raise ValueError(f"variables must be below {MAX_VARS}")
        lib, handle = self._lib, self._handle
        checked = lib.cdcl_check_batch(
            _address(lits), len(lits), _address(lens), len(lens), MAX_VARS,
        )
        if checked == -1:
            raise ValueError("clause lengths do not match the literal buffer")
        if checked == -2:
            raise ValueError(f"variables must be below {MAX_VARS}")
        done = lib.cdcl_add_clauses(
            handle, _address(lits), _address(lens), len(lens),
            int(bool(trusted)), int(guard is not None), guard or 0,
        )
        if done < 0:
            raise ValueError("literal 0 is not allowed in a clause")
        return bool(done)

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
        formula first.  ``conflict_limit`` and ``time_limit`` (seconds)
        bound the search; when either budget is exhausted the status is
        ``"UNKNOWN"``.  ``model_vars`` projects a SAT model onto just those
        variables (the mapper decodes only placement literals).
        """
        start = time.perf_counter()
        lib, handle = self._lib, self._handle
        lib.cdcl_begin(handle)
        if cnf is not None:
            lib.cdcl_reset(handle)
            self.ensure_vars(cnf.num_vars)
            self.add_clauses(*flatten(cnf.clauses))
        cube = _literals(assumptions)
        if conflict_limit is None:
            limit = -1
        else:
            limit = min(max(0, math.ceil(conflict_limit)), _MAX_CONFLICTS)
        code = lib.cdcl_solve(
            handle, _address(cube), len(cube), limit, int(time_limit is not None),
            float(time_limit if time_limit is not None else 0.0), start,
        )
        self._drain_proof()
        info = self._read_info()
        self.stats = SolverStats(
            decisions=info.decisions,
            propagations=info.propagations,
            conflicts=info.conflicts,
            restarts=info.restarts,
            learned_clauses=info.learned_clauses,
            deleted_clauses=info.deleted_clauses,
            max_decision_level=info.max_decision_level,
            solve_time=time.perf_counter() - start,
            binary_propagations=info.binary_propagations,
            blocker_skips=info.blocker_skips,
            arena_bytes=info.arena_bytes,
        )
        status = _STATUS_NAMES[code]
        if status != "SAT":
            return SolverResult(status, None, self.stats)
        num_vars = info.num_vars
        raw = array("B", bytes(num_vars + 1))
        lib.cdcl_model(handle, _address(raw))
        if model_vars is not None:
            model = {var: raw[var] == 1 for var in model_vars if 0 < var <= num_vars}
        else:
            model = {var: raw[var] == 1 for var in range(1, num_vars + 1)}
        return SolverResult("SAT", model, self.stats)

    def _drain_proof(self) -> None:
        proof = self.proof
        if proof is None:
            return  # the core buffers events only for a solver with a logger
        from repro.sat.native import proof_events  # loaded by ``__init__``

        events = proof_events(self._lib, self._handle)
        index = 0
        while index < len(events):
            kind, size = events[index], events[index + 1]
            lits = events[index + 2:index + 2 + size]
            index += 2 + size
            if kind == _PROOF_ADD:
                proof.add(lits)
            else:
                proof.delete(lits)
