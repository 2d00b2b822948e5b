"""The cardinality encodings, as the native emission kernel builds them.

Two tiny mapping instances isolate them.  One node with no edges on a
``1 x n`` fabric at II 1 has ``n`` placement literals, each alone in its
(PE, cycle) slot: its encoding is C1's exactly-one over ``n`` literals and
nothing else.  ``n`` edge-free nodes on one PE, each free over ``cycles``
kernel cycles, put ``n`` literals into every cycle's C2 at-most-one group.
The DPLL oracle then checks the semantics exhaustively.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.architecture import CGRA
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.dfg.graph import DFG
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.encodings import AUTO_PAIRWISE_LIMIT, AMOEncoding


def _encode(dfg, cgra, ii, slack, amo):
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=slack), ii)
    config = EncoderConfig(amo_encoding=amo, symmetry_breaking=False)
    return MappingEncoder(dfg, cgra, kms, config).encode()


def exactly_one(n, amo):
    """C1 of one node over ``n`` literals; returns (encoding, literals)."""
    encoding = _encode(DFG.from_edge_list("one", 1, []), CGRA(rows=1, cols=n), 1, 0,
                       amo)
    assert encoding.stats.num_c2_clauses == 0
    return encoding, list(encoding.variables.values())


def free_nodes(n, amo, cycles):
    """``n`` edge-free nodes sharing one PE over ``cycles`` kernel cycles."""
    return _encode(DFG.from_edge_list("free", n, []), CGRA(rows=1, cols=1), cycles,
                   cycles - 1, amo)


def _satisfiable(cnf: CNF, assumptions) -> bool:
    return DPLLSolver().solve(cnf, assumptions=assumptions) is not None


def _models(cnf: CNF, variables) -> set[tuple[bool, ...]]:
    """Every model projected onto ``variables`` (blocking-clause loop)."""
    found = set()
    blocked = CNF(num_vars=cnf.num_vars, clauses=cnf.clauses)
    while (model := DPLLSolver().solve(blocked)) is not None:
        bits = tuple(model[var] for var in variables)
        found.add(bits)
        blocked.add_clause([-var if bit else var for var, bit in zip(variables, bits)])
    return found


@pytest.mark.parametrize("amo", list(AMOEncoding))
class TestExactlyOne:
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 9])
    def test_semantics_exhaustive(self, amo, n):
        """An assignment of the literals extends to a model exactly when
        one of them is true."""
        encoding, literals = exactly_one(n, amo)
        for bits in itertools.product([False, True], repeat=n):
            cube = [lit if bit else -lit for lit, bit in zip(literals, bits)]
            assert _satisfiable(encoding.cnf, cube) == (sum(bits) == 1), bits

    def test_single_literal_is_one_unit_clause(self, amo):
        encoding, literals = exactly_one(1, amo)
        assert encoding.stats.num_c1_clauses == 1
        assert encoding.stats.num_variables == 1
        assert encoding.cnf.clauses == [tuple(literals)]

    def test_forcing_last_literal(self, amo):
        encoding, literals = exactly_one(7, amo)
        model = DPLLSolver().solve(encoding.cnf, assumptions=[-v for v in literals[:-1]])
        assert model is not None and model[literals[-1]] is True


@pytest.mark.parametrize("amo", list(AMOEncoding))
class TestAtMostOne:
    @pytest.mark.parametrize("n", [2, 5, 6, 7])
    def test_semantics_exhaustive(self, amo, n):
        """With a spare cycle, an assignment of one cycle's ``n`` literals
        extends to a model exactly when at most one of them is true."""
        encoding = free_nodes(n, amo, n + 1)
        group = [encoding.variables[node, 0, 1, 0] for node in range(n)]
        for bits in itertools.product([False, True], repeat=n):
            cube = [lit if bit else -lit for lit, bit in zip(group, bits)]
            assert _satisfiable(encoding.cnf, cube) == (sum(bits) <= 1), bits

    def test_single_literal_is_noop(self, amo):
        """One node alone on a PE: every C2 group holds one literal and
        needs no clause."""
        encoding = free_nodes(1, amo, 3)
        assert encoding.stats.num_c2_clauses == 0
        assert encoding.stats.num_variables == 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_node_per_slot(self, amo, n):
        """The placements of ``n`` nodes on one PE over ``n`` cycles are
        exactly the ``n!`` permutations."""
        encoding = free_nodes(n, amo, n)
        assert encoding.stats.num_c2_clauses > 0
        variables = list(encoding.variables.values())
        models = _models(encoding.cnf, variables)
        assert len(models) == len(list(itertools.permutations(range(n))))
        placements = [dict(zip(encoding.variables, bits)) for bits in models]
        for placement in placements:
            cycles = [key[2] for key, true in placement.items() if true]
            assert sorted(cycles) == list(range(n))

    def test_two_nodes_in_one_slot_unsat(self, amo):
        encoding = free_nodes(6, amo, 6)
        first = encoding.variables[(0, 0, 2, 0)]
        second = encoding.variables[(4, 0, 2, 0)]
        assert not _satisfiable(encoding.cnf, [first, second])
        assert _satisfiable(encoding.cnf, [first])


class TestClauseCounts:
    def test_pairwise_is_quadratic(self):
        encoding, _ = exactly_one(10, AMOEncoding.PAIRWISE)
        assert encoding.stats.num_c1_clauses == 1 + 45  # at-least-one + C(10, 2)
        assert encoding.stats.num_variables == 10

    def test_sequential_is_linear(self):
        encoding, _ = exactly_one(20, AMOEncoding.SEQUENTIAL)
        assert encoding.stats.num_c1_clauses == 1 + 3 * 20 - 4
        assert encoding.stats.num_variables == 20 + 19  # auxiliary registers

    def test_commander_uses_fewer_clauses_than_pairwise(self):
        pairwise, _ = exactly_one(40, AMOEncoding.PAIRWISE)
        commander, _ = exactly_one(40, AMOEncoding.COMMANDER)
        assert commander.stats.num_c1_clauses < pairwise.stats.num_c1_clauses

    def test_small_groups_are_always_pairwise(self):
        counts = {amo: exactly_one(4, amo)[0].stats.num_c1_clauses for amo in AMOEncoding}
        assert set(counts.values()) == {1 + 6}

    def test_auto_switches_to_sequential_above_the_limit(self):
        at_limit, _ = exactly_one(AUTO_PAIRWISE_LIMIT, AMOEncoding.AUTO)
        n = AUTO_PAIRWISE_LIMIT + 1
        above, _ = exactly_one(n, AMOEncoding.AUTO)
        assert at_limit.stats.num_c1_clauses == 1 + AUTO_PAIRWISE_LIMIT * (
            AUTO_PAIRWISE_LIMIT - 1) // 2
        assert above.stats.num_c1_clauses == 1 + 3 * n - 4

    def test_string_encoding_names_accepted(self):
        encoding, _ = exactly_one(3, "pairwise")
        assert encoding.stats.num_c1_clauses == 1 + 3


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), data=st.data())
def test_all_encodings_equisatisfiable(n, data):
    """Under any forced partial placement of ``n`` nodes sharing one PE,
    the encodings agree on satisfiability."""
    keys = [(node, 0, cycle, 0) for node in range(n) for cycle in range(n)]
    forced = data.draw(st.dictionaries(st.sampled_from(keys), st.booleans(),
                                       max_size=4))
    verdicts = set()
    for amo in AMOEncoding:
        encoding = free_nodes(n, amo, n)
        cube = [encoding.variables[key] if value else -encoding.variables[key]
                for key, value in forced.items()]
        verdicts.add(_satisfiable(encoding.cnf, cube))
    assert len(verdicts) == 1
