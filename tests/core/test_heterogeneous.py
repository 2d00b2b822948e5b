"""End-to-end tests for mapping on heterogeneous (capability-constrained) fabrics.

Covers the acceptance criteria of the capability refactor: kernels with
memory ops land their LOAD/STORE nodes on memory-capable PEs (validated by
the cycle-accurate simulator acting as a legality oracle), homogeneous
fabrics see a literal-identical encoding (same variable count, same II), and
infeasible opcode histograms fail fast with a clear error.
"""

import pytest

from repro.baselines import ExhaustiveMapper, PathSeekerMapper, RampMapper
from repro.baselines.base import BaselineConfig
from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import ALL_OP_CLASSES, PEClass
from repro.cgra.presets import mem_edge_4x4, mul_sparse
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.core.regalloc import allocate_registers
from repro.dfg.graph import DFG, OpClass, Opcode
from repro.exceptions import MappingError, SimulationError
from repro.kernels import get_kernel
from repro.simulator import CGRASimulator


def memory_chain():
    """load -> add -> store, plus a loop-carried accumulator."""
    dfg = DFG(name="memory_chain")
    dfg.add_node(0, Opcode.LOAD, name="ld")
    dfg.add_node(1, Opcode.ADD, name="acc")
    dfg.add_node(2, Opcode.STORE, name="st")
    dfg.add_edge(0, 1)
    dfg.add_edge(1, 2)
    dfg.add_edge(1, 1, distance=1)
    dfg.validate()
    return dfg


def encode(dfg, cgra, ii, slack=0, **kwargs):
    ms = MobilitySchedule.build(dfg, slack=slack)
    kms = KernelMobilitySchedule.build(ms, ii)
    return MappingEncoder(dfg, cgra, kms, EncoderConfig(**kwargs)).encode()


class TestEncoderPruning:
    def test_pruned_variables_counted(self):
        cgra = mem_edge_4x4()
        dfg = memory_chain()
        encoding = encode(dfg, cgra, ii=2, slack=1)
        # LOAD and STORE each lose the 4 interior PEs per KMS slot.
        assert encoding.stats.num_pruned_placements > 0
        for (node, pe, _cycle, _it) in encoding.variables:
            if dfg.node(node).opcode.is_memory:
                assert pe in cgra.pes_supporting(Opcode.LOAD)

    def test_homogeneous_encoding_is_literal_identical(self):
        """Explicit all-capable classes produce the exact classic encoding."""
        dfg = get_kernel("srand")
        plain = CGRA.square(3)
        classed = CGRA(
            rows=3, cols=3,
            pe_classes=(PEClass(name="full", capabilities=ALL_OP_CLASSES),),
            class_map=("full",) * 9,
        )
        a = encode(dfg, plain, ii=3)
        b = encode(dfg, classed, ii=3)
        assert a.stats.num_pruned_placements == 0
        assert b.stats.num_pruned_placements == 0
        assert a.stats.num_variables == b.stats.num_variables
        assert a.stats.num_clauses == b.stats.num_clauses
        assert set(a.variables) == set(b.variables)

    def test_homogeneous_final_ii_unchanged(self):
        dfg = get_kernel("srand")
        plain = SatMapItMapper(MapperConfig(timeout=60.0)).map(dfg, CGRA.square(2))
        classed_fabric = CGRA(
            rows=2, cols=2,
            pe_classes=(PEClass(name="full", capabilities=ALL_OP_CLASSES),),
            class_map=("full",) * 4,
        )
        classed = SatMapItMapper(MapperConfig(timeout=60.0)).map(dfg, classed_fabric)
        assert plain.success and classed.success
        assert plain.ii == classed.ii
        assert (
            plain.attempts[0].num_variables == classed.attempts[0].num_variables
        )


class TestHeterogeneousMapping:
    def test_memory_kernel_on_mem_edge_4x4(self):
        """The issue's acceptance scenario, validated by the simulator."""
        cgra = mem_edge_4x4()
        dfg = get_kernel("nw")  # 4 loads + 1 store
        outcome = SatMapItMapper(MapperConfig(timeout=120.0)).map(dfg, cgra)
        assert outcome.success
        mem_capable = set(cgra.pes_supporting(Opcode.LOAD))
        for node in dfg.nodes:
            if node.opcode.is_memory:
                assert outcome.mapping.placements[node.node_id].pe in mem_capable
        result = CGRASimulator(
            outcome.mapping, outcome.register_allocation
        ).run(num_iterations=3)
        assert result.success, result.errors

    def test_mul_sparse_constrains_multiplies(self):
        cgra = mul_sparse(4)
        dfg = get_kernel("srand")  # one MUL node
        outcome = SatMapItMapper(MapperConfig(timeout=120.0)).map(dfg, cgra)
        assert outcome.success
        dsp = set(cgra.pes_supporting(Opcode.MUL))
        for node in dfg.nodes:
            if node.opcode in (Opcode.MUL, Opcode.DIV):
                assert outcome.mapping.placements[node.node_id].pe in dsp

    def test_capability_mii_floor_enforced(self):
        # 3 memory nodes, one memory PE: II can never go below 3.
        dfg = DFG(name="three_loads")
        for node_id in range(3):
            dfg.add_node(node_id, Opcode.LOAD)
        dfg.add_node(3, Opcode.ADD)
        for node_id in range(3):
            dfg.add_edge(node_id, 3)
        classes = (
            PEClass(name="mem"),
            PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),
        )
        cgra = CGRA(rows=2, cols=2, pe_classes=classes,
                    class_map=("mem", "alu", "alu", "alu"))
        outcome = SatMapItMapper(MapperConfig(timeout=60.0)).map(dfg, cgra)
        assert outcome.minimum_ii >= 3
        assert outcome.success
        assert outcome.ii >= 3

    def test_unmappable_kernel_raises_clear_error(self):
        classes = (PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),)
        cgra = CGRA(rows=2, cols=2, pe_classes=classes, class_map=("alu",) * 4)
        with pytest.raises(MappingError, match="cannot fit"):
            SatMapItMapper(MapperConfig(timeout=10.0)).map(memory_chain(), cgra)

    def test_incremental_and_fresh_agree_on_heterogeneous_ii(self, fresh_per_ii):
        cgra = mem_edge_4x4()
        dfg = memory_chain()
        incremental = SatMapItMapper(MapperConfig(timeout=60.0)).map(dfg, cgra)
        fresh = SatMapItMapper(
            MapperConfig(timeout=60.0, search=fresh_per_ii)
        ).map(dfg, cgra)
        assert incremental.success and fresh.success
        assert incremental.ii == fresh.ii


class TestBaselinesRespectCapabilities:
    @pytest.mark.parametrize("mapper_factory", [
        lambda: RampMapper(BaselineConfig(timeout=30.0)),
        lambda: PathSeekerMapper(BaselineConfig(timeout=30.0)),
    ])
    def test_heuristics_only_use_capable_pes(self, mapper_factory):
        cgra = mem_edge_4x4()
        dfg = get_kernel("nw")
        outcome = mapper_factory().map(dfg, cgra)
        if not outcome.success:
            pytest.skip("heuristic found no mapping inside the budget")
        mem_capable = set(cgra.pes_supporting(Opcode.LOAD))
        for node in dfg.nodes:
            if node.opcode.is_memory:
                assert outcome.mapping.placements[node.node_id].pe in mem_capable
        assert outcome.mapping.is_valid()

    def test_heuristics_raise_on_unmappable_histogram(self):
        classes = (PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),)
        cgra = CGRA(rows=2, cols=2, pe_classes=classes, class_map=("alu",) * 4)
        with pytest.raises(MappingError, match="cannot fit"):
            RampMapper(BaselineConfig(timeout=5.0)).map(memory_chain(), cgra)

    def test_exhaustive_respects_capabilities(self):
        classes = (
            PEClass(name="mem"),
            PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),
        )
        cgra = CGRA(rows=2, cols=2, pe_classes=classes,
                    class_map=("mem", "alu", "alu", "mem"))
        outcome = ExhaustiveMapper(timeout=30.0).map(memory_chain(), cgra)
        assert outcome.success
        for node in memory_chain().nodes:
            if node.opcode.is_memory:
                assert outcome.mapping.placements[node.node_id].pe in (0, 3)

    def test_exhaustive_and_sat_agree_on_optimal_heterogeneous_ii(self):
        classes = (
            PEClass(name="mem"),
            PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),
        )
        cgra = CGRA(rows=2, cols=2, pe_classes=classes,
                    class_map=("mem", "alu", "alu", "mem"))
        dfg = memory_chain()
        oracle = ExhaustiveMapper(timeout=60.0, enforce_output_register=False).map(
            dfg, cgra
        )
        sat = SatMapItMapper(MapperConfig(timeout=60.0)).map(dfg, cgra)
        assert oracle.success and sat.success
        assert sat.ii == oracle.ii


class TestPerPERegisterFiles:
    def test_allocation_respects_small_register_file(self):
        # The accumulator chain keeps values live on whichever PE hosts them;
        # a 1-register class must be reported as the failing PE when
        # overloaded.
        dfg = DFG(name="fanout")
        dfg.add_node(0, Opcode.ADD)
        for node_id in (1, 2, 3):
            dfg.add_node(node_id, Opcode.ADD)
            dfg.add_edge(0, node_id)
        classes = (PEClass(name="tiny", registers=1),)
        cgra = CGRA(rows=1, cols=2, registers_per_pe=4,
                    pe_classes=classes, class_map=("tiny", "tiny"))
        from repro.core.mapping import Mapping

        mapping = Mapping(dfg=dfg, cgra=cgra, ii=2)
        mapping.place(0, 0, 0, 0)
        mapping.place(1, 1, 0, 0)  # consumed late -> long live range
        mapping.place(2, 0, 1, 1)
        mapping.place(3, 1, 1, 1)
        allocation = allocate_registers(dfg, cgra, mapping, True)
        assert not allocation.success
        assert allocation.failed_pe == 0

    def test_heterogeneous_register_files_in_allocation(self):
        # Same mapping, but the producer sits on an 8-register PE: fits.
        dfg = DFG(name="fanout")
        dfg.add_node(0, Opcode.ADD)
        for node_id in (1, 2, 3):
            dfg.add_node(node_id, Opcode.ADD)
            dfg.add_edge(0, node_id)
        classes = (PEClass(name="fat", registers=8),
                   PEClass(name="tiny", registers=1))
        cgra = CGRA(rows=1, cols=2, pe_classes=classes,
                    class_map=("fat", "tiny"))
        from repro.core.mapping import Mapping

        mapping = Mapping(dfg=dfg, cgra=cgra, ii=2)
        mapping.place(0, 0, 0, 0)
        mapping.place(1, 1, 0, 0)
        mapping.place(2, 0, 1, 1)
        mapping.place(3, 1, 1, 1)
        allocation = allocate_registers(dfg, cgra, mapping, True)
        assert allocation.success


class TestSimulatorLegalityOracle:
    def test_simulator_raises_on_incapable_pe(self):
        classes = (
            PEClass(name="mem"),
            PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),
        )
        cgra = CGRA(rows=1, cols=3, pe_classes=classes,
                    class_map=("mem", "alu", "alu"))
        dfg = memory_chain()
        from repro.core.mapping import Mapping

        mapping = Mapping(dfg=dfg, cgra=cgra, ii=3)
        mapping.place(0, 1, 0, 0)  # LOAD on an ALU-only PE
        mapping.place(1, 1, 1, 0)
        mapping.place(2, 0, 2, 0)
        with pytest.raises(SimulationError, match="only implements"):
            CGRASimulator(mapping).run(num_iterations=2)

    def test_violations_flag_capability_breaches(self):
        classes = (PEClass(name="alu", capabilities=frozenset({OpClass.ALU})),)
        cgra = CGRA(rows=1, cols=2, pe_classes=classes, class_map=("alu", "alu"))
        dfg = DFG(name="one_load")
        dfg.add_node(0, Opcode.LOAD)
        from repro.core.mapping import Mapping

        mapping = Mapping(dfg=dfg, cgra=cgra, ii=1)
        mapping.place(0, 0, 0, 0)
        problems = mapping.violations()
        assert any("only implements" in problem for problem in problems)
