"""Tests for the CNF container and DIMACS serialisation."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sat.cnf import CNF, clause_satisfied, clause_slices, flatten


class TestFlatBatches:
    def test_flatten_round_trips_through_clause_slices(self):
        clauses = [(1, -2), (3,), (), (4, 5, -6)]
        literals, lengths = flatten(clauses)
        assert list(literals) == [1, -2, 3, 4, 5, -6]
        assert list(lengths) == [2, 1, 0, 3]
        assert [tuple(c) for c in clause_slices(literals, lengths)] == clauses

    def test_add_clauses_takes_the_flat_pair(self):
        cnf = CNF()
        cnf.add_clauses(*flatten([[1, -2], [2, 2, 3]]), guard=-3, trusted=True)
        assert cnf.clauses == [(1, -2), (2, 3)]

    @pytest.mark.parametrize("lengths", [[2, 1], [1], [3, -1, 2]])
    def test_lengths_must_cover_the_literals(self, lengths):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clauses([1, 2, 3, 4], lengths)
        assert cnf.num_clauses == 0


class TestConstruction:
    def test_empty_formula(self):
        cnf = CNF()
        assert cnf.num_vars == 0
        assert cnf.num_clauses == 0
        assert len(cnf) == 0

    def test_new_var_increments(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_new_vars_bulk(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_new_vars_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CNF().new_vars(-1)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CNF(num_vars=-1)

    def test_add_clause_grows_num_vars(self):
        cnf = CNF()
        cnf.add_clause([3, -5])
        assert cnf.num_vars == 5
        assert cnf.clauses == [(3, -5)]

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            CNF().add_clause([1, 0])

    def test_duplicate_literals_removed(self):
        cnf = CNF()
        cnf.add_clause([1, 1, 2])
        assert cnf.clauses == [(1, 2)]

    def test_tautology_dropped(self):
        cnf = CNF()
        cnf.add_clause([1, -1, 2])
        assert cnf.num_clauses == 0
        # Variables are still registered.
        assert cnf.num_vars == 2

    def test_empty_clause_kept(self):
        cnf = CNF()
        cnf.add_clause([])
        assert cnf.clauses == [()]

    def test_ensure_var(self):
        cnf = CNF()
        cnf.ensure_var(7)
        assert cnf.num_vars == 7
        cnf.ensure_var(3)
        assert cnf.num_vars == 7

    def test_ensure_var_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CNF().ensure_var(0)

    def test_constructor_with_clauses(self):
        cnf = CNF(num_vars=2, clauses=[[1, 2], [-1]])
        assert cnf.num_clauses == 2
        assert cnf.num_vars == 2

    def test_extend_merges_clauses(self):
        a = CNF(clauses=[[1, 2]])
        b = CNF(clauses=[[-2, 3]])
        a.extend(b)
        assert a.num_clauses == 2
        assert a.num_vars == 3

    def test_repr(self):
        cnf = CNF(clauses=[[1, 2]])
        assert "num_vars=2" in repr(cnf)

    def test_dedup_drops_exact_duplicates_at_ingest(self):
        cnf = CNF(dedup=True)
        cnf.add_clause([1, 2])
        cnf.add_clause([2, 1])  # same clause, different literal order
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([1, 2])
        assert cnf.num_clauses == 2
        assert cnf.num_duplicates_dropped == 2

    def test_dedup_off_by_default(self):
        cnf = CNF(clauses=[[1, 2], [2, 1]])
        assert cnf.num_clauses == 2
        assert cnf.num_duplicates_dropped == 0

    def test_dedup_applies_to_extend(self):
        cnf = CNF(dedup=True, clauses=[[1, 2]])
        cnf.extend(CNF(clauses=[[2, 1], [3]]))
        assert cnf.num_clauses == 2
        assert cnf.num_duplicates_dropped == 1
        # And clauses brought in via extend participate in later dedup.
        cnf.add_clause([3])
        assert cnf.num_clauses == 2
        assert cnf.num_duplicates_dropped == 2


class TestEvaluation:
    def test_evaluate_true(self):
        cnf = CNF(clauses=[[1, -2], [2, 3]])
        assert cnf.evaluate({1: True, 2: False, 3: True})

    def test_evaluate_false(self):
        cnf = CNF(clauses=[[1], [-1]])
        assert not cnf.evaluate({1: True})

    def test_unassigned_variable_counts_as_unsatisfied(self):
        cnf = CNF(clauses=[[1, 2]])
        assert not cnf.evaluate({})

    def test_clause_satisfied_helper(self):
        assert clause_satisfied((1, -2), {2: False})
        assert not clause_satisfied((1, -2), {1: False, 2: True})


class TestDimacs:
    def test_to_dimacs_format(self):
        cnf = CNF(clauses=[[1, -2], [2]])
        text = cnf.to_dimacs()
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 2 2"
        assert lines[1] == "1 -2 0"
        assert lines[2] == "2 0"

    def test_round_trip(self):
        cnf = CNF(clauses=[[1, -2, 3], [2], [-3, -1]])
        parsed = CNF.from_dimacs(cnf.to_dimacs())
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_parse_with_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 3 2\n1 2 0\nc another\n-3 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.num_vars == 3
        assert cnf.clauses == [(1, 2), (-3,)]

    def test_parse_clause_spanning_lines(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.clauses == [(1, 2, 3)]

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p cnf 3\n1 0\n")

    def test_more_clauses_than_declared_rejected(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p cnf 2 1\n1 0\n2 0\n")

    def test_stream_io(self):
        cnf = CNF(clauses=[[1, 2]])
        buffer = io.StringIO()
        cnf.write_dimacs(buffer)
        buffer.seek(0)
        parsed = CNF.read_dimacs(buffer)
        assert parsed.clauses == cnf.clauses

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_property(self, clauses):
        cnf = CNF(clauses=clauses)
        parsed = CNF.from_dimacs(cnf.to_dimacs())
        assert parsed.clauses == cnf.clauses
        assert parsed.num_vars == cnf.num_vars
