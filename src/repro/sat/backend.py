"""Pluggable incremental solver backends (the mapper's solving layer).

The mapper builds one backend per (II, slack) attempt and re-solves the
attempt's formula after every register-allocation rejection.  Rebuilding a
solver for each of those calls would throw away learned clauses, VSIDS
activities and saved phases, so the mapper talks to the SAT engine through
a :class:`SolverBackend`: an object that accumulates variables and clauses
over its lifetime and answers ``solve(assumptions=...)`` queries
incrementally.

Two backends ship with the repository:

* ``"cdcl"`` — the production engine, a thin stats-keeping adapter over the
  native incremental CDCL core from :func:`repro.sat.solver.make_solver`
  (clause database, learned clauses, activities and phases persist across
  calls).  Creating it raises :class:`BackendUnavailableError` when the
  core cannot be built or loaded.
* ``"dpll"`` — the easy-to-audit reference oracle, replaying the accumulated
  clause set through :class:`repro.sat.dpll.DPLLSolver` on every call.  It is
  not incremental internally but implements the same protocol, which lets the
  test-suite cross-check the incremental engine under assumptions.

Only ``cdcl`` writes DRAT proofs.  Further engines plug in through
:func:`register_backend` (the test-suite registers fakes this way) and are
selected by name via ``MapperConfig.backend`` / the CLI's ``--backend``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Protocol, runtime_checkable

from repro.sat.cnf import CNF, clause_slices
from repro.sat.dpll import DPLLSolver
from repro.sat.drat import ProofLogger
from repro.sat.solver import SolverResult, SolverStats, make_solver


class BackendUnavailableError(RuntimeError):
    """A requested solver backend exists but cannot run here.

    The ``cdcl`` backend raises it when the native core cannot be built or
    loaded (``binary`` names the C compiler, ``reason`` says what failed);
    a registered engine that depends on a missing binary may raise it too.
    Carries the binary name, what went wrong with it and an actionable
    hint; the CLI surfaces it as a one-line error.
    """

    def __init__(self, binary: str, hint: str = "", reason: str = "not found") -> None:
        self.binary = binary
        self.hint = hint
        self.reason = reason
        message = f"solver backend unavailable: {binary!r} {reason}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


@dataclass
class BackendStats:
    """Cumulative counters over the lifetime of one backend instance.

    Unlike :class:`repro.sat.solver.SolverStats` (which describes a single
    ``solve`` call) these accumulate across calls, which is what the mapper's
    reuse metrics are built from.
    """

    solve_calls: int = 0
    variables_added: int = 0
    clauses_added: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    solve_time: float = 0.0
    #: Learned clauses currently alive in the database — i.e. inference
    #: carried over into the *next* call (always 0 for non-learning engines).
    learned_in_db: int = 0


@runtime_checkable
class SolverBackend(Protocol):
    """Protocol every pluggable solving engine implements.

    A backend is a *persistent* solver: ``new_var`` and ``add_clause`` grow
    the formula monotonically, and every ``solve`` call decides the current
    clause set under the given assumption literals.  The variable/clause
    interface is deliberately identical to :class:`repro.sat.cnf.CNF` so the
    mapping encoder can emit straight into a live backend; bulk batches
    arrive in the one flat form of :func:`repro.sat.cnf.flatten`.
    """

    name: str
    stats: BackendStats

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        ...

    def new_var(self) -> int:
        """Allocate and return one fresh variable."""
        ...

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables in one call."""
        ...

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add one clause to the persistent formula."""
        ...

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Bulk clause ingestion; see :meth:`CDCLBackend.add_clauses`."""
        ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Decide the current formula under the given assumption cube."""
        ...


class CDCLBackend:
    """The production backend: incremental CDCL with cumulative stats."""

    name = "cdcl"
    #: This engine populates solver-core counters (conflicts, propagations)
    #: that budget probing and bench rate metrics are derived from.
    instrumented = True

    def __init__(self, proof_path: str | None = None, **solver_kwargs) -> None:
        #: Optional DRAT trace (see :mod:`repro.sat.drat`): every learned
        #: clause and database deletion is logged, so an UNSAT answer ships
        #: with an independently checkable derivation.
        self.proof_path = proof_path
        self._proof = ProofLogger(proof_path) if proof_path is not None else None
        self._solver = make_solver(proof=self._proof, **solver_kwargs)
        self.stats = BackendStats()

    def close(self) -> None:
        """Close the DRAT trace file, if one is being written."""
        if self._proof is not None:
            self._proof.close()

    def proof_digest(self) -> str | None:
        """Running SHA-256 over the DRAT trace emitted so far."""
        if self._proof is None or self._proof.additions == 0:
            return None
        return self._proof.digest()

    @property
    def num_vars(self) -> int:
        """Number of variables allocated in the live solver."""
        return self._solver.num_vars

    def new_var(self) -> int:
        """Allocate one fresh solver variable."""
        self.stats.variables_added += 1
        return self._solver.new_var()

    def new_vars(self, count: int) -> list[int]:
        """Bulk variable allocation (one extend per per-variable array)."""
        self.stats.variables_added += count
        return self._solver.new_vars(count)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add one clause to the incremental solver."""
        self.stats.clauses_added += 1
        self._solver.add_clause(literals)

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Bulk clause ingestion (single backtrack, batched propagation).

        The batch is flat (see :func:`repro.sat.cnf.flatten`): clause ``i``
        is the next ``lengths[i]`` entries of ``literals``.  ``guard`` names
        the batch's shared selector-guard literal so guard-tailed ternary
        clauses reach the solver's guard-aware implication lists;
        ``trusted`` promises intra-clause hygiene (no zero/duplicate/
        complementary literals) and lets the solver skip those checks.
        """
        before = self._solver.clauses_added
        self._solver.add_clauses(literals, lengths, guard=guard, trusted=trusted)
        self.stats.clauses_added += self._solver.clauses_added - before

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Decide the formula under ``assumptions``, folding run stats."""
        result = self._solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            time_limit=time_limit,
            model_vars=model_vars,
        )
        call = result.stats
        self.stats.solve_calls += 1
        self.stats.conflicts += call.conflicts
        self.stats.decisions += call.decisions
        self.stats.propagations += call.propagations
        self.stats.learned_clauses += call.learned_clauses
        self.stats.solve_time += call.solve_time
        self.stats.learned_in_db = self._solver.num_learned
        return result


class DPLLBackend:
    """Reference-oracle backend: accumulated CNF replayed through DPLL.

    ``conflict_limit`` maps onto the DPLL decision budget and ``time_limit``
    onto the solver's deadline check; exhausting either is reported as
    ``"UNKNOWN"`` like the CDCL engine does.
    """

    name = "dpll"
    #: The oracle reports decisions but no conflict/propagation counters,
    #: so budget probing and rate metrics must not be derived from it.
    instrumented = False

    def __init__(self, random_seed: int | None = None, **_ignored) -> None:
        # The oracle is deterministic; the seed is accepted (and ignored) so
        # both backends can be built from the same mapper configuration.
        self._cnf = CNF()
        self.stats = BackendStats()

    @property
    def num_vars(self) -> int:
        """Number of variables in the accumulated CNF."""
        return self._cnf.num_vars

    def new_var(self) -> int:
        """Allocate one fresh CNF variable."""
        self.stats.variables_added += 1
        return self._cnf.new_var()

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh CNF variables."""
        self.stats.variables_added += count
        return self._cnf.new_vars(count)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Append one clause to the accumulated CNF."""
        self.stats.clauses_added += 1
        self._cnf.add_clause(literals)

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Append a flat batch clause by clause.

        ``guard``/``trusted`` are accepted for interface parity; the CNF
        container's own (cheap) validation always runs.
        """
        for clause in clause_slices(literals, lengths):
            self.add_clause(clause)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Replay the accumulated CNF through the DPLL oracle."""
        start = time.perf_counter()
        solver = DPLLSolver(max_decisions=conflict_limit)
        stats = SolverStats()
        try:
            model = solver.solve(
                self._cnf, assumptions=assumptions, time_limit=time_limit
            )
        except RuntimeError:  # decision or time budget exhausted
            status, model = "UNKNOWN", None
        else:
            status = "SAT" if model is not None else "UNSAT"
        if model is not None and model_vars is not None:
            model = {var: model.get(var, False) for var in model_vars}
        stats.decisions = solver.decisions
        stats.solve_time = time.perf_counter() - start
        self.stats.solve_calls += 1
        self.stats.decisions += stats.decisions
        self.stats.solve_time += stats.solve_time
        return SolverResult(status, model, stats)


BackendFactory = Callable[..., SolverBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under ``name`` (overwrites silently)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def create_backend(name: str, **kwargs) -> SolverBackend:
    """Instantiate a registered backend by name.

    Raises :class:`ValueError` for unknown names.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(**kwargs)


def validate_backend(name: str) -> None:
    """Eagerly check that ``name`` is a registered backend.

    Raises the :class:`ValueError` :func:`create_backend` would, without
    building a backend, so a typo fails as one clear line up front.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown solver backend {name!r}; available: {available_backends()}"
        )


register_backend("cdcl", CDCLBackend)
register_backend("dpll", DPLLBackend)
