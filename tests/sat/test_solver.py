"""Tests for the CDCL solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.backend import CDCLBackend
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver


def _pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


class TestBasics:
    def test_empty_formula_sat(self):
        result = CDCLBackend().solve(CNF())
        assert result.is_sat
        assert result.model == {}

    def test_unit_clauses(self):
        result = CDCLBackend().solve(CNF(clauses=[[1], [-2]]))
        assert result.is_sat
        assert result.model == {1: True, 2: False}

    def test_empty_clause_unsat(self):
        cnf = CNF(clauses=[[1]])
        cnf.add_clause([])
        assert CDCLBackend().solve(cnf).is_unsat

    def test_contradictory_units_unsat(self):
        assert CDCLBackend().solve(CNF(clauses=[[1], [-1]])).is_unsat

    def test_model_satisfies_formula(self):
        cnf = CNF(clauses=[[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]])
        result = CDCLBackend().solve(cnf)
        assert result.is_sat
        assert cnf.evaluate(result.model)

    def test_implication_chain(self):
        # 1 -> 2 -> 3 -> ... -> 10, with 1 forced.
        cnf = CNF(clauses=[[1]] + [[-i, i + 1] for i in range(1, 10)])
        result = CDCLBackend().solve(cnf)
        assert result.is_sat
        assert all(result.model[i] for i in range(1, 11))
        # The whole chain is derived by propagation, not decisions.
        assert result.stats.decisions == 0

    def test_unsat_needs_conflict_analysis(self):
        cnf = CNF(clauses=[
            [1, 2], [1, -2], [-1, 3], [-1, -3],
        ])
        result = CDCLBackend().solve(cnf)
        assert result.is_unsat

    def test_result_flags(self):
        sat = CDCLBackend().solve(CNF(clauses=[[1]]))
        assert sat.is_sat and not sat.is_unsat
        unsat = CDCLBackend().solve(CNF(clauses=[[1], [-1]]))
        assert unsat.is_unsat and not unsat.is_sat


class TestPigeonhole:
    @pytest.mark.parametrize("pigeons,holes,expected", [
        (3, 3, "SAT"),
        (4, 3, "UNSAT"),
        (5, 4, "UNSAT"),
        (6, 5, "UNSAT"),
    ])
    def test_pigeonhole_instances(self, pigeons, holes, expected):
        result = CDCLBackend().solve(_pigeonhole(pigeons, holes))
        assert result.status == expected

    def test_stats_populated_on_hard_instance(self):
        result = CDCLBackend().solve(_pigeonhole(6, 5))
        assert result.stats.conflicts > 0
        assert result.stats.decisions > 0
        assert result.stats.propagations > 0
        assert result.stats.solve_time > 0


class TestAssumptions:
    def test_assumptions_restrict_models(self):
        cnf = CNF(clauses=[[1, 2]])
        result = CDCLBackend().solve(cnf, assumptions=[-1])
        assert result.is_sat
        assert result.model[1] is False
        assert result.model[2] is True

    def test_assumption_conflict(self):
        cnf = CNF(clauses=[[1]])
        assert CDCLBackend().solve(cnf, assumptions=[-1]).is_unsat

    def test_multiple_assumptions(self):
        cnf = CNF(num_vars=4, clauses=[[1, 2, 3, 4]])
        result = CDCLBackend().solve(cnf, assumptions=[-1, -2, -3])
        assert result.is_sat
        assert result.model[4] is True


class TestBudgets:
    def test_conflict_limit_returns_unknown(self):
        result = CDCLBackend().solve(_pigeonhole(7, 6), conflict_limit=5)
        assert result.status == "UNKNOWN"
        assert result.model is None

    def test_time_limit_returns_unknown(self):
        result = CDCLBackend().solve(_pigeonhole(9, 8), time_limit=0.001)
        assert result.status in ("UNKNOWN", "UNSAT")


class TestRestartsAndDeletion:
    def test_restarts_happen_on_hard_instances(self):
        solver = CDCLBackend(restart_base=10)
        result = solver.solve(_pigeonhole(6, 5))
        assert result.is_unsat
        assert result.stats.restarts > 0

    def test_clause_deletion_triggers(self):
        solver = CDCLBackend(learned_limit_base=50)
        result = solver.solve(_pigeonhole(7, 6))
        assert result.is_unsat
        assert result.stats.learned_clauses > 50


def _random_cnf(seed: int, num_vars: int, num_clauses: int, width: int = 3) -> CNF:
    rng = random.Random(seed)
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        clause = [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, width))
        ]
        cnf.add_clause(clause)
    return cnf


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_dpll_on_random_formulas(self, seed):
        cnf = _random_cnf(seed, num_vars=4 + seed % 8, num_clauses=10 + 3 * (seed % 10))
        cdcl = CDCLBackend().solve(cnf)
        dpll = DPLLSolver().solve(cnf)
        assert cdcl.is_sat == (dpll is not None)
        if cdcl.is_sat:
            assert cnf.evaluate(cdcl.model)


@settings(max_examples=40, deadline=None)
@given(
    num_vars=st.integers(min_value=2, max_value=10),
    clauses=st.lists(
        st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3),
        min_size=1,
        max_size=30,
    ),
    signs=st.lists(st.booleans(), min_size=1, max_size=90),
)
def test_cdcl_matches_dpll_property(num_vars, clauses, signs):
    """CDCL and DPLL agree on satisfiability for arbitrary small formulas."""
    cnf = CNF(num_vars=num_vars)
    sign_index = 0
    for clause in clauses:
        literals = []
        for literal in clause:
            variable = (literal - 1) % num_vars + 1
            positive = signs[sign_index % len(signs)]
            sign_index += 1
            literals.append(variable if positive else -variable)
        cnf.add_clause(literals)
    cdcl = CDCLBackend().solve(cnf)
    dpll = DPLLSolver().solve(cnf)
    assert cdcl.is_sat == (dpll is not None)
    if cdcl.is_sat:
        assert cnf.evaluate(cdcl.model)
