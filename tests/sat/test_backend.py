"""The incremental CDCL solver cross-checked against the DPLL oracle.

The heart of this module is the assumption cross-check: :class:`CDCLBackend`
must agree with the DPLL reference oracle on random formulas under random
assumption sets, including repeated ``solve`` calls on a growing clause set
(SAT→UNSAT transitions, recovery after UNSAT-under-assumptions).  The
oracle answers both directly and through :class:`DPLLBackend`, the
test-only adapter that gives it the solver's call set.
"""

import random

import pytest

from repro.sat.backend import CDCLBackend
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from tests.sat.dpll_backend import DPLLBackend


def _random_clauses(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        clauses.append([
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, width))
        ])
    return clauses


def _random_assumptions(rng, num_vars, max_count):
    count = rng.randint(0, max_count)
    variables = rng.sample(range(1, num_vars + 1), min(count, num_vars))
    return [rng.choice([1, -1]) * var for var in variables]


@pytest.mark.parametrize("solver", [CDCLBackend, DPLLBackend])
class TestCallSet:
    def test_grow_and_solve(self, solver):
        backend = solver()
        a, b = backend.new_var(), backend.new_var()
        backend.add_clause([a, b])
        backend.add_clause([-a])
        result = backend.solve()
        assert result.is_sat
        assert result.model[a] is False
        assert result.model[b] is True
        assert backend.num_vars == 2

    def test_assumptions_flip_answer(self, solver):
        backend = solver()
        a = backend.new_var()
        b = backend.new_var()
        backend.add_clause([a, b])
        assert backend.solve(assumptions=[-a, -b]).is_unsat
        assert backend.solve(assumptions=[-a]).is_sat
        # The backend recovered: UNSAT under assumptions is not sticky.
        assert backend.solve().is_sat

    def test_sat_to_unsat_transition(self, solver):
        backend = solver()
        a = backend.new_var()
        assert backend.solve().is_sat
        backend.add_clause([a])
        assert backend.solve().is_sat
        backend.add_clause([-a])
        assert backend.solve().is_unsat
        # Root-level UNSAT is permanent.
        assert backend.solve().is_unsat
        assert backend.solve(assumptions=[a]).is_unsat

    def test_counters_survive_repeated_solves(self, solver):
        backend = solver()
        a = backend.new_var()
        backend.add_clause([a])
        backend.solve()
        backend.solve()
        assert backend.num_vars == 1
        assert backend.clauses_added == 1


class TestIncrementalCDCL:
    def test_learned_clauses_persist_across_calls(self):
        backend = CDCLBackend()
        # A selector-guarded pigeonhole 5-into-4 core: refuting it under the
        # selector assumption forces clause learning, and because the
        # contradiction is conditional the formula itself stays satisfiable.
        guard = backend.new_var()
        holes, pigeons = 4, 5
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = backend.new_var()
        for p in range(pigeons):
            backend.add_clause([var[(p, h)] for h in range(holes)] + [-guard])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    backend.add_clause([-var[(p1, h)], -var[(p2, h)], -guard])
        first = backend.solve(assumptions=[guard])
        assert first.is_unsat
        assert first.stats.conflicts > 0
        carried = backend.num_learned
        assert carried > 0
        # The solver is still usable and starts the next call with the
        # learned clauses in the database.
        second = backend.solve()
        assert second.is_sat
        assert backend.num_learned >= carried

    def test_selector_guarded_groups(self):
        """Constraint groups hang off selector literals, as the mapper's do."""
        backend = CDCLBackend()
        s1, s2 = backend.new_var(), backend.new_var()
        x = backend.new_var()
        backend.add_clause([x, -s1])  # group 1 forces x
        backend.add_clause([-x, -s2])  # group 2 forbids x
        on1 = backend.solve(assumptions=[s1])
        assert on1.is_sat and on1.model[x] is True
        on2 = backend.solve(assumptions=[s2])
        assert on2.is_sat and on2.model[x] is False
        assert backend.solve(assumptions=[s1, s2]).is_unsat
        # Retire group 1, group 2 still solvable.
        backend.add_clause([-s1])
        assert backend.solve(assumptions=[s2]).is_sat

    def test_incremental_matches_oneshot_on_growing_formula(self):
        rng = random.Random(42)
        backend = CDCLBackend()
        cnf = CNF(num_vars=8)
        for _ in range(8):
            backend.new_var()
        for round_index in range(12):
            for clause in _random_clauses(rng, 8, 4):
                backend.add_clause(clause)
                cnf.add_clause(clause)
            incremental = backend.solve()
            oneshot = CDCLBackend().solve(cnf)
            assert incremental.status == oneshot.status, f"round {round_index}"
            if incremental.is_sat:
                assert cnf.evaluate(incremental.model)


class TestAssumptionCrossCheck:
    """CDCL and the DPLL oracle agree under random assumption sets."""

    @pytest.mark.parametrize("seed", range(20))
    def test_single_solve_with_assumptions(self, seed):
        rng = random.Random(seed)
        num_vars = 4 + seed % 8
        clauses = _random_clauses(rng, num_vars, 10 + 3 * (seed % 10))
        assumptions = _random_assumptions(rng, num_vars, 4)

        backend = CDCLBackend()
        cnf = CNF(num_vars=num_vars)
        for _ in range(num_vars):
            backend.new_var()
        for clause in clauses:
            backend.add_clause(clause)
            cnf.add_clause(clause)

        cdcl = backend.solve(assumptions=assumptions)
        dpll = DPLLSolver().solve(cnf, assumptions=assumptions)
        assert cdcl.is_sat == (dpll is not None)
        if cdcl.is_sat:
            assert cnf.evaluate(cdcl.model)
            for lit in assumptions:
                assert cdcl.model[abs(lit)] == (lit > 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_incremental_solves_on_growing_clause_set(self, seed):
        """One persistent backend, many (grow, assume, solve) rounds."""
        rng = random.Random(1000 + seed)
        num_vars = 6 + seed % 5
        backend = CDCLBackend()
        cnf = CNF(num_vars=num_vars)
        for _ in range(num_vars):
            backend.new_var()

        went_unsat = False
        for round_index in range(10):
            for clause in _random_clauses(rng, num_vars, 3):
                backend.add_clause(clause)
                cnf.add_clause(clause)
            assumptions = _random_assumptions(rng, num_vars, 3)
            cdcl = backend.solve(assumptions=assumptions)
            dpll = DPLLSolver().solve(cnf, assumptions=assumptions)
            assert cdcl.is_sat == (dpll is not None), (
                f"seed {seed} round {round_index} assumptions {assumptions}"
            )
            if cdcl.is_sat:
                assert cnf.evaluate(cdcl.model)
            elif DPLLSolver().solve(cnf) is None:
                went_unsat = True  # root UNSAT reached; later rounds stay UNSAT
        if went_unsat:
            assert backend.solve().is_unsat

    @pytest.mark.parametrize("seed", range(5))
    def test_dpll_backend_agrees_with_cdcl_backend(self, seed):
        rng = random.Random(2000 + seed)
        num_vars = 5 + seed
        clauses = _random_clauses(rng, num_vars, 12 + 2 * seed)
        backends = [CDCLBackend(), DPLLBackend()]
        for backend in backends:
            for _ in range(num_vars):
                backend.new_var()
            for clause in clauses:
                backend.add_clause(clause)
        assumptions = _random_assumptions(rng, num_vars, 3)
        results = [backend.solve(assumptions=assumptions) for backend in backends]
        assert results[0].status == results[1].status


class TestDPLLBackend:
    def test_decision_budget_reports_unknown(self):
        backend = DPLLBackend()
        # Pigeonhole 7-into-6 needs far more than 2 decisions to refute.
        holes, pigeons = 6, 7
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = backend.new_var()
        for p in range(pigeons):
            backend.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    backend.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert backend.solve(conflict_limit=2).status == "UNKNOWN"
