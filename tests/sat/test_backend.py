"""Tests for the pluggable incremental solver backends.

The heart of this module is the assumption cross-check: the incremental CDCL
backend must agree with the DPLL reference oracle on random formulas under
random assumption sets, including repeated ``solve`` calls on a growing
clause set (SAT→UNSAT transitions, recovery after UNSAT-under-assumptions).
"""

import random

import pytest

from repro.sat.backend import (
    BackendStats,
    BackendUnavailableError,
    CDCLBackend,
    DPLLBackend,
    SolverBackend,
    available_backends,
    create_backend,
    register_backend,
    validate_backend,
)
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.solver import make_solver


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


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "cdcl" in names
        assert "dpll" in names

    def test_create_backend_by_name(self):
        backend = create_backend("cdcl")
        assert backend.name == "cdcl"
        assert isinstance(backend, SolverBackend)
        assert isinstance(create_backend("dpll"), DPLLBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            create_backend("z3")

    def test_custom_backend_registration(self):
        register_backend("custom-test", CDCLBackend)
        try:
            assert "custom-test" in available_backends()
            assert isinstance(create_backend("custom-test"), CDCLBackend)
        finally:
            import repro.sat.backend as backend_module

            del backend_module._REGISTRY["custom-test"]

    def test_factory_kwargs_forwarded(self):
        backend = create_backend("cdcl", random_seed=7)
        assert backend._solver.random_seed == 7


@pytest.mark.parametrize("name", ["cdcl", "dpll"])
class TestProtocolBasics:
    def test_grow_and_solve(self, name):
        backend = create_backend(name)
        a, b = backend.new_var(), backend.new_var()
        backend.add_clause([a, b])
        backend.add_clause([-a])
        result = backend.solve()
        assert result.is_sat
        assert result.model[a] is False
        assert result.model[b] is True
        assert backend.num_vars == 2

    def test_assumptions_flip_answer(self, name):
        backend = create_backend(name)
        a = backend.new_var()
        b = backend.new_var()
        backend.add_clause([a, b])
        assert backend.solve(assumptions=[-a, -b]).is_unsat
        assert backend.solve(assumptions=[-a]).is_sat
        # The backend recovered: UNSAT under assumptions is not sticky.
        assert backend.solve().is_sat

    def test_sat_to_unsat_transition(self, name):
        backend = create_backend(name)
        a = backend.new_var()
        assert backend.solve().is_sat
        backend.add_clause([a])
        assert backend.solve().is_sat
        backend.add_clause([-a])
        assert backend.solve().is_unsat
        # Root-level UNSAT is permanent.
        assert backend.solve().is_unsat
        assert backend.solve(assumptions=[a]).is_unsat

    def test_stats_accumulate_across_calls(self, name):
        backend = create_backend(name)
        a = backend.new_var()
        backend.add_clause([a])
        backend.solve()
        backend.solve()
        assert isinstance(backend.stats, BackendStats)
        assert backend.stats.solve_calls == 2
        assert backend.stats.variables_added == 1
        assert backend.stats.clauses_added == 1


class TestIncrementalCDCL:
    def test_learned_clauses_persist_across_calls(self):
        backend = create_backend("cdcl")
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
        carried = backend.stats.learned_in_db
        assert carried > 0
        # The backend is still usable and starts the next call with the
        # learned clauses in the database.
        second = backend.solve()
        assert second.is_sat
        assert backend.stats.solve_calls == 2
        assert backend.stats.learned_in_db >= carried

    def test_selector_guarded_groups(self):
        """The mapper's retirement pattern: groups hang off selector literals."""
        backend = create_backend("cdcl")
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
        backend = create_backend("cdcl")
        cnf = CNF(num_vars=8)
        for _ in range(8):
            backend.new_var()
        for round_index in range(12):
            for clause in _random_clauses(rng, 8, 4):
                backend.add_clause(clause)
                cnf.add_clause(clause)
            incremental = backend.solve()
            oneshot = make_solver().solve(cnf)
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

        backend = create_backend("cdcl")
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
        backend = create_backend("cdcl")
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
        backends = [create_backend("cdcl"), create_backend("dpll")]
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
        backend = create_backend("dpll")
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


def test_backend_classification():
    shipped = set(available_backends())
    assert {"cdcl", "dpll"} <= shipped
    assert not {"subprocess", "kissat", "cadical", "minisat"} & shipped
    # Only engines reporting conflict counts get the mapper's conflict
    # budget probe.
    assert CDCLBackend.instrumented
    assert not DPLLBackend.instrumented
    validate_backend("cdcl")  # must not raise
    with pytest.raises(ValueError, match="unknown solver backend"):
        validate_backend("external:/usr/bin/kissat")


def test_missing_binary_raises_with_install_hint(monkeypatch):
    """A registered engine whose binary is absent fails at creation with
    the binary name and an install hint, not deep inside its first solve."""
    import repro.sat.backend as backend_module

    def unavailable(**_kwargs):
        raise BackendUnavailableError("fakesat", "apt-get install fakesat")

    monkeypatch.setitem(backend_module._REGISTRY, "fakesat", unavailable)
    with pytest.raises(BackendUnavailableError) as excinfo:
        create_backend("fakesat")
    assert excinfo.value.binary == "fakesat"
    assert excinfo.value.hint == "apt-get install fakesat"
    assert "not found" in str(excinfo.value)
