"""A test-only solver with the call set of :class:`CDCLBackend`, answered by DPLL.

:class:`DPLLBackend` accumulates variables and clauses like the CDCL solver
and replays the whole clause set through the reference oracle
(:class:`repro.sat.dpll.DPLLSolver`) on every ``solve``.  It is not
incremental inside, but it answers the same calls, so the tests can
cross-check the incremental engine under assumptions and run the mapper on
the oracle (by substituting it for ``repro.core.mapper.CDCLBackend``).  It
writes no proofs and reports decisions but no conflict counts, so a mapper
run on it needs ``MapperConfig(amo_probe_conflicts=None)``: a probe could
never see its conflict budget run out.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.sat.cnf import CNF, clause_slices
from repro.sat.dpll import DPLLSolver
from repro.sat.solver import SolverResult, SolverStats


class DPLLBackend:
    """Accumulated CNF replayed through DPLL.

    ``conflict_limit`` maps onto the DPLL decision budget and ``time_limit``
    onto the solver's deadline check; exhausting either is reported as
    ``"UNKNOWN"`` like the CDCL engine does.
    """

    proof_path = None

    def __init__(self) -> None:
        self._cnf = CNF()
        #: Lifetime count of clause submissions, as the CDCL solver keeps it.
        self.clauses_added = 0

    @property
    def num_vars(self) -> int:
        return self._cnf.num_vars

    def new_var(self) -> int:
        return self._cnf.new_var()

    def new_vars(self, count: int) -> list[int]:
        return self._cnf.new_vars(count)

    def add_clause(self, literals: Sequence[int]) -> None:
        self.clauses_added += 1
        self._cnf.add_clause(literals)

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Append a flat batch clause by clause; ``guard`` and ``trusted``
        are accepted for parity and change nothing."""
        for clause in clause_slices(literals, lengths):
            self.add_clause(clause)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        start = time.perf_counter()
        solver = DPLLSolver(max_decisions=conflict_limit)
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
        stats = SolverStats(
            decisions=solver.decisions, solve_time=time.perf_counter() - start
        )
        return SolverResult(status, model, stats)

    def close(self) -> None:
        pass

    def proof_digest(self) -> None:
        return None
