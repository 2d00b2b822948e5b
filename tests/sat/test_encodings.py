"""Tests for the cardinality encodings (at-most-one / exactly-one)."""

import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.encodings import (
    AMOEncoding,
    at_least_one,
    at_most_one,
    count_true,
    exactly_one,
    pairwise_columns,
    sequential_columns,
    weave,
)

def _models_over(cnf: CNF, variables: list[int]) -> set[tuple[bool, ...]]:
    """Enumerate all satisfying assignments projected onto ``variables``."""
    solutions: set[tuple[bool, ...]] = set()
    free = [var for var in range(1, cnf.num_vars + 1)]
    for bits in itertools.product([False, True], repeat=len(free)):
        assignment = dict(zip(free, bits))
        if cnf.evaluate(assignment):
            solutions.add(tuple(assignment[v] for v in variables))
    return solutions


@pytest.mark.parametrize("encoding", list(AMOEncoding))
class TestAtMostOne:
    def test_no_literals_is_noop(self, encoding):
        cnf = CNF()
        at_most_one(cnf, [], encoding)
        assert cnf.num_clauses == 0

    def test_single_literal_is_noop(self, encoding):
        cnf = CNF(num_vars=1)
        at_most_one(cnf, [1], encoding)
        assert cnf.num_clauses == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_semantics_exhaustive(self, encoding, n):
        """Every projected model has at most one literal true, and every
        such combination is attainable."""
        cnf = CNF(num_vars=n)
        variables = list(range(1, n + 1))
        at_most_one(cnf, variables, encoding)
        projected = _models_over(cnf, variables)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=n)
            if sum(bits) <= 1
        }
        assert projected == expected

    def test_two_true_unsat(self, encoding):
        cnf = CNF(num_vars=4)
        at_most_one(cnf, [1, 2, 3, 4], encoding)
        cnf.add_clause([1])
        cnf.add_clause([3])
        assert DPLLSolver().solve(cnf) is None


@pytest.mark.parametrize("encoding", list(AMOEncoding))
class TestExactlyOne:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_semantics_exhaustive(self, encoding, n):
        cnf = CNF(num_vars=n)
        variables = list(range(1, n + 1))
        exactly_one(cnf, variables, encoding)
        projected = _models_over(cnf, variables)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=n)
            if sum(bits) == 1
        }
        assert projected == expected

    def test_forcing_last_literal(self, encoding):
        cnf = CNF(num_vars=5)
        exactly_one(cnf, [1, 2, 3, 4, 5], encoding)
        for var in (1, 2, 3, 4):
            cnf.add_clause([-var])
        model = DPLLSolver().solve(cnf)
        assert model is not None
        assert model[5] is True


class TestClauseCounts:
    def test_pairwise_is_quadratic(self):
        cnf = CNF(num_vars=10)
        at_most_one(cnf, list(range(1, 11)), AMOEncoding.PAIRWISE)
        assert cnf.num_clauses == 45  # C(10, 2)

    def test_sequential_is_linear(self):
        cnf = CNF(num_vars=20)
        at_most_one(cnf, list(range(1, 21)), AMOEncoding.SEQUENTIAL)
        assert cnf.num_clauses == 3 * 20 - 4
        assert cnf.num_vars == 20 + 19  # auxiliary registers

    def test_commander_uses_fewer_clauses_than_pairwise(self):
        literals = list(range(1, 41))
        pairwise = CNF(num_vars=40)
        at_most_one(pairwise, literals, AMOEncoding.PAIRWISE)
        commander = CNF(num_vars=40)
        at_most_one(commander, literals, AMOEncoding.COMMANDER)
        assert commander.num_clauses < pairwise.num_clauses


class TestBlocks:
    """The bulk block functions emit exactly the textbook per-clause loops."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_pairwise_block_is_the_double_loop(self, n):
        lits = [3 * k + 1 for k in range(n)]
        expected = [(-lits[i], -lits[j]) for i in range(n) for j in range(i + 1, n)]
        firsts, seconds = pairwise_columns(lits)
        assert list(zip(firsts, seconds)) == expected
        dropped = {0: {1}, 2: {n - 1}} if n > 3 else {0: {1}}
        firsts, seconds = pairwise_columns(lits, dropped)
        assert list(zip(firsts, seconds)) == [
            pair for pair in expected
            if not any(pair == (-lits[i], -lits[j])
                       for i, js in dropped.items() for j in js)
        ]

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_sequential_block_is_the_sinz_loop(self, n):
        lits = list(range(1, n + 1))
        regs = list(range(n + 1, 2 * n))
        expected = [(-lits[0], regs[0]), (-lits[n - 1], -regs[n - 2])]
        for i in range(1, n - 1):
            expected += [(-lits[i], regs[i]), (-regs[i - 1], regs[i]),
                         (-lits[i], -regs[i - 1])]
        assert list(zip(*sequential_columns(lits, regs))) == expected

    def test_weave_appends_the_guard(self):
        columns = (array("i", [1, 2]), array("i", [-3, -4]))
        assert [list(part) for part in weave(columns)] == [[1, -3, 2, -4], [2, 2]]
        assert [list(part) for part in weave(columns, guard=-9)] == [
            [1, -3, -9, 2, -4, -9], [3, 3]]

    def test_custom_pairwise_emitter_receives_every_pairwise_group(self):
        groups = []
        cnf = CNF(num_vars=12)
        at_most_one(cnf, list(range(1, 13)), AMOEncoding.COMMANDER,
                    pairwise=groups.append)
        # Three groups of four plus the commanders' own pairwise level.
        assert [len(group) for group in groups] == [4, 4, 4, 3]


class TestHelpers:
    def test_at_least_one_empty_is_unsat(self):
        cnf = CNF()
        at_least_one(cnf, [])
        assert cnf.clauses == [()]

    def test_count_true(self):
        assert count_true([1, -2, 3], {1: True, 2: True, 3: False}) == 1

    def test_string_encoding_names_accepted(self):
        cnf = CNF(num_vars=3)
        at_most_one(cnf, [1, 2, 3], "pairwise")
        assert cnf.num_clauses == 3


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), data=st.data())
def test_all_encodings_equisatisfiable(n, data):
    """Under any forced partial assignment, the three encodings agree."""
    forced_true = data.draw(st.sets(st.integers(1, n), max_size=2))
    results = []
    for encoding in list(AMOEncoding):
        cnf = CNF(num_vars=n)
        at_most_one(cnf, list(range(1, n + 1)), encoding)
        for var in forced_true:
            cnf.add_clause([var])
        results.append(DPLLSolver().solve(cnf) is not None)
    assert len(set(results)) == 1
