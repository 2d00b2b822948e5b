"""Tests for the CNF encoding of the mapping problem (C1, C2, C3)."""

import pytest

from repro.cgra.architecture import CGRA
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mapping import Mapping
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.dfg.graph import DFG, paper_running_example
from repro.exceptions import EncodingError
from repro.sat.encodings import AMOEncoding
from repro.sat.solver import make_solver


def encode(dfg, cgra, ii, slack=0, **kwargs):
    ms = MobilitySchedule.build(dfg, slack=slack)
    kms = KernelMobilitySchedule.build(ms, ii)
    return MappingEncoder(dfg, cgra, kms, EncoderConfig(**kwargs)).encode()


def decode_to_mapping(dfg, cgra, ii, encoding, model) -> Mapping:
    mapping = Mapping(dfg=dfg, cgra=cgra, ii=ii)
    for node, (pe, cycle, iteration) in encoding.decode(model).items():
        mapping.place(node, pe, cycle, iteration)
    return mapping


def chain(n):
    return DFG.from_edge_list("chain", n, [(i, i + 1) for i in range(n - 1)])


class TestEncodingShape:
    def test_variable_count(self):
        dfg = chain(3)
        cgra = CGRA.square(2)
        encoding = encode(dfg, cgra, ii=3)
        # Every node has exactly one KMS slot (no mobility in a chain of
        # length = critical path), so 3 nodes x 4 PEs primary variables.
        primary = [v for key, v in encoding.variables.items()]
        assert len(primary) == 12
        assert encoding.stats.num_variables >= 12

    def test_stats_are_populated(self):
        dfg = paper_running_example()
        encoding = encode(dfg, CGRA.square(2), ii=3)
        stats = encoding.stats
        assert stats.num_c1_clauses > 0
        assert stats.num_c2_clauses > 0
        assert stats.num_c3_clauses > 0
        assert stats.num_clauses == len(encoding.cnf.clauses)

    def test_emitter_deduplicates_constraint_clauses(self):
        """The sink never receives the same clause twice (any config)."""
        from repro.kernels import get_kernel

        for config in (EncoderConfig(), EncoderConfig(enforce_output_register=True)):
            dfg = get_kernel("gsm")
            cgra = CGRA.square(3)
            kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg), 4)
            encoding = MappingEncoder(dfg, cgra, kms, config).encode()
            keys = [tuple(sorted(clause)) for clause in encoding.cnf.clauses]
            assert len(keys) == len(set(keys))
        # The generators do produce duplicates on this kernel; the emitter
        # must have counted (and dropped) them.
        assert encoding.stats.num_duplicate_clauses > 0

    def test_every_node_owns_placement_literals(self):
        dfg = paper_running_example()
        encoding = encode(dfg, CGRA.square(2), ii=3)
        assert {node for node, _, _, _ in encoding.variables} == set(dfg.node_ids)

    def test_amo_choice_affects_clause_count(self):
        dfg = paper_running_example()
        cgra = CGRA.square(3)
        pairwise = encode(dfg, cgra, ii=3, amo_encoding=AMOEncoding.PAIRWISE)
        sequential = encode(dfg, cgra, ii=3, amo_encoding=AMOEncoding.SEQUENTIAL)
        assert pairwise.stats.num_clauses > sequential.stats.num_clauses

    def test_symmetry_breaking_adds_unit_clauses(self):
        dfg = paper_running_example()
        with_sym = encode(dfg, CGRA.square(3), ii=3, symmetry_breaking=True)
        without = encode(dfg, CGRA.square(3), ii=3, symmetry_breaking=False)
        assert with_sym.stats.num_symmetry_clauses > 0
        assert without.stats.num_symmetry_clauses == 0


class TestDecoding:
    def test_decode_reads_only_true_primary_variables(self):
        dfg = chain(2)
        cgra = CGRA.square(2)
        encoding = encode(dfg, cgra, ii=2)
        result = make_solver().solve(encoding.cnf)
        assert result.is_sat
        placements = encoding.decode(result.model)
        assert set(placements) == {0, 1}

    def test_decode_rejects_double_placement(self):
        dfg = chain(2)
        encoding = encode(dfg, CGRA.square(2), ii=2)
        # Force a bogus model where one node is placed twice.
        keys = [key for key in encoding.variables if key[0] == 0][:2]
        model = {var: False for var in range(1, encoding.cnf.num_vars + 1)}
        for key in keys:
            model[encoding.variables[key]] = True
        with pytest.raises(EncodingError):
            encoding.decode(model)


class TestModelsAreLegalMappings:
    @pytest.mark.parametrize("size,ii", [(2, 3), (3, 2), (2, 4)])
    def test_running_example_models_decode_to_legal_mappings(self, size, ii):
        dfg = paper_running_example()
        cgra = CGRA.square(size)
        encoding = encode(dfg, cgra, ii=ii)
        result = make_solver().solve(encoding.cnf)
        if not result.is_sat:
            pytest.skip(f"II={ii} infeasible on {size}x{size} under this encoding")
        mapping = decode_to_mapping(dfg, cgra, ii, encoding, result.model)
        assert mapping.violations() == []

    def test_strict_output_register_models_respect_overwrite_rule(self):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        encoding = encode(dfg, cgra, ii=3, enforce_output_register=True)
        result = make_solver().solve(encoding.cnf)
        if not result.is_sat:
            pytest.skip("strict model infeasible at II=3")
        mapping = decode_to_mapping(dfg, cgra, 3, encoding, result.model)
        assert mapping.violations(check_overwrite=True) == []


class TestInfeasibleInstances:
    def test_too_many_nodes_for_kernel_is_unsat(self):
        # Five independent nodes, one PE, II=2: only 2 slots available.
        dfg = DFG.from_edge_list("five", 5, [])
        cgra = CGRA(rows=1, cols=1)
        encoding = encode(dfg, cgra, ii=2)
        assert make_solver().solve(encoding.cnf).is_unsat

    def test_non_neighbouring_dependency_unsat_on_disconnected_case(self):
        # A chain that must spread over 3 cycles but II=1 on a single PE:
        # node at each cycle collides modulo 1.
        dfg = chain(3)
        cgra = CGRA(rows=1, cols=1)
        encoding = encode(dfg, cgra, ii=1)
        assert make_solver().solve(encoding.cnf).is_unsat

    def test_chain_on_single_pe_feasible_when_ii_large_enough(self):
        dfg = chain(3)
        cgra = CGRA(rows=1, cols=1)
        encoding = encode(dfg, cgra, ii=3)
        assert make_solver().solve(encoding.cnf).is_sat


class TestSymmetryBreakingSoundness:
    @pytest.mark.parametrize("ii", [2, 3])
    def test_same_satisfiability_with_and_without(self, ii):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        with_sym = make_solver().solve(encode(dfg, cgra, ii, symmetry_breaking=True).cnf)
        without = make_solver().solve(encode(dfg, cgra, ii, symmetry_breaking=False).cnf)
        assert with_sym.status == without.status


class TestIterationSpanRestriction:
    def test_restriction_never_helps_satisfiability(self):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        unrestricted = make_solver().solve(
            encode(dfg, cgra, ii=3, max_iteration_span=None).cnf
        )
        restricted = make_solver().solve(
            encode(dfg, cgra, ii=3, max_iteration_span=1).cnf
        )
        if restricted.is_sat:
            assert unrestricted.is_sat
