"""The replay oracle, ``replay_validated``: structural rules plus a
two-iteration simulator replay, shared by the heuristic baselines, the seed
pre-pass and the scale panel.

Legal mappings from every mapper pass it; a mapping broken in any of the
ways ``Mapping.violations()`` names fails it, with or without a register
allocation; each transfer-model parameter changes the verdict exactly where
it should; and the ``ROUTE`` opcode, which DFG JSON from outside may carry,
maps and replays like any other ALU operation.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PathSeekerMapper, RampMapper
from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import effective_minimum_ii
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.mapping import Mapping, Placement
from repro.core.regalloc import RegisterAllocation, allocate_registers
from repro.dfg.graph import DFG, OpClass, Opcode
from repro.kernels import get_kernel, random_layered_dfg
from repro.search.seed import run_seed
from repro.simulator import interpret_dfg, replay_validated


def _sat_outcome(kernel: str, size: int):
    outcome = SatMapItMapper(MapperConfig(timeout=60, random_seed=0)).map(
        get_kernel(kernel), CGRA.square(size)
    )
    assert outcome.success
    return outcome


def _copy(mapping: Mapping) -> Mapping:
    return dataclasses.replace(mapping, placements=dict(mapping.placements))


class TestLegalMappingsPass:
    @pytest.mark.parametrize("kernel", [
        "srand", "stringsearch", "basicmath", "nw", "bitcount", "gsm",
        "sha", "hotspot",
    ])
    def test_sat_mapping_passes(self, kernel):
        outcome = _sat_outcome(kernel, 3)
        assert outcome.register_allocation is not None
        assert replay_validated(outcome.mapping, outcome.register_allocation)

    @pytest.mark.parametrize("kernel", ["srand", "nw", "bitcount", "basicmath"])
    @pytest.mark.parametrize("mapper_cls", [RampMapper, PathSeekerMapper])
    def test_heuristic_mapping_passes(self, mapper_cls, kernel):
        outcome = mapper_cls().map(get_kernel(kernel), CGRA.square(3))
        assert outcome.success
        assert replay_validated(outcome.mapping, outcome.register_allocation)

    def test_allocation_free_mapping_gets_structural_check_only(self):
        outcome = SatMapItMapper(MapperConfig(run_register_allocation=False)).map(
            get_kernel("gsm"), CGRA.square(3)
        )
        assert outcome.register_allocation is None
        assert replay_validated(outcome.mapping, None)

    def test_strict_transfer_model_mapping_passes_strict_oracle(self):
        config = MapperConfig(
            timeout=60, enforce_output_register=True,
            neighbour_register_file_access=False,
        )
        outcome = SatMapItMapper(config).map(get_kernel("srand"), CGRA.square(3))
        assert outcome.success
        assert replay_validated(
            outcome.mapping, outcome.register_allocation,
            enforce_output_register=True, neighbour_register_file_access=False,
        )


# ----------------------------------------------------------------------
# Broken mappings: each corruption names the violations() message it trips.
# ----------------------------------------------------------------------
def _forward_edge(mapping: Mapping):
    return next(edge for edge in mapping.dfg.edges if edge.distance == 0)


def _unplace(mapping: Mapping) -> None:
    del mapping.placements[_forward_edge(mapping).dst]


def _double_book(mapping: Mapping) -> None:
    edge = _forward_edge(mapping)
    src = mapping.placements[edge.src]
    dst = mapping.placements[edge.dst]
    mapping.placements[edge.dst] = Placement(edge.dst, src.pe, src.cycle,
                                             dst.iteration)


def _cycle_outside_kernel(mapping: Mapping) -> None:
    edge = _forward_edge(mapping)
    dst = mapping.placements[edge.dst]
    mapping.placements[edge.dst] = Placement(edge.dst, dst.pe, mapping.ii,
                                             dst.iteration)


def _pe_outside_fabric(mapping: Mapping) -> None:
    edge = _forward_edge(mapping)
    dst = mapping.placements[edge.dst]
    mapping.placements[edge.dst] = Placement(
        edge.dst, mapping.cgra.num_pes, dst.cycle, dst.iteration
    )


def _non_neighbour(mapping: Mapping) -> None:
    edge = _forward_edge(mapping)
    src = mapping.placements[edge.src]
    dst = mapping.placements[edge.dst]
    far = next(
        pe for pe in range(mapping.cgra.num_pes)
        if not mapping.cgra.are_neighbours(src.pe, pe, include_self=True)
    )
    mapping.placements[edge.dst] = Placement(edge.dst, far, dst.cycle,
                                             dst.iteration)


def _consumed_early(mapping: Mapping) -> None:
    edge = _forward_edge(mapping)
    src = mapping.placements[edge.src]
    dst = mapping.placements[edge.dst]
    mapping.placements[edge.dst] = Placement(edge.dst, dst.pe, src.cycle,
                                             src.iteration)


CORRUPTIONS = {
    "unplaced": (_unplace, "is not placed"),
    "double-booked": (_double_book, "hosts both"),
    "cycle-outside-kernel": (_cycle_outside_kernel, "outside the kernel"),
    "pe-outside-fabric": (_pe_outside_fabric, "the CGRA has"),
    "non-neighbour": (_non_neighbour, "are not neighbours"),
    "consumed-early": (_consumed_early, "before being produced"),
}


class TestBrokenMappingsFail:
    @pytest.fixture(scope="class")
    def legal(self):
        return _sat_outcome("gsm", 4)

    @pytest.mark.parametrize("with_allocation", [True, False],
                             ids=["allocated", "unallocated"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corruption_is_rejected(self, legal, corruption, with_allocation):
        corrupt, message = CORRUPTIONS[corruption]
        mapping = _copy(legal.mapping)
        assert replay_validated(mapping, legal.register_allocation)
        corrupt(mapping)
        assert any(message in problem for problem in mapping.violations())
        allocation = legal.register_allocation if with_allocation else None
        assert not replay_validated(mapping, allocation)

    def test_simulator_error_is_a_rejection_not_a_crash(self):
        # Nothing to place passes every structural rule, but the simulator
        # refuses an empty mapping; the oracle turns that into "not valid".
        mapping = Mapping(DFG(name="empty"), CGRA.square(2), ii=1)
        assert mapping.violations() == []
        assert not replay_validated(mapping, RegisterAllocation(success=True))
        assert replay_validated(mapping, None)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_structural_violation_is_rejected(self, data):
        legal = _sat_outcome("srand", 3)
        mapping = _copy(legal.mapping)
        node = data.draw(st.sampled_from(sorted(mapping.placements)))
        pe = data.draw(st.integers(0, mapping.cgra.num_pes - 1))
        cycle = data.draw(st.integers(0, mapping.ii - 1))
        iteration = data.draw(st.integers(0, 2))
        mapping.placements[node] = Placement(node, pe, cycle, iteration)
        if mapping.violations():
            assert not replay_validated(mapping, legal.register_allocation)
            assert not replay_validated(mapping, None)


class TestTransferModelParameters:
    """One mapping that is structurally legal but leaves a neighbour
    transfer to a clobbered output register: only the strict checks see it."""

    @pytest.fixture
    def clobbered(self):
        dfg = DFG.from_edge_list("triple", 3, [(0, 2)])
        mapping = Mapping(dfg, CGRA.square(2), ii=3)
        mapping.place(0, pe=0, cycle=0)
        mapping.place(1, pe=0, cycle=1)   # overwrites PE 0's output register
        mapping.place(2, pe=1, cycle=2)   # the neighbour reads it too late
        assert mapping.violations() == []
        return mapping

    def test_relaxed_oracle_accepts(self, clobbered):
        allocation = allocate_registers(clobbered.dfg, clobbered.cgra,
                                        clobbered, True)
        assert replay_validated(clobbered, allocation)
        assert replay_validated(clobbered, None)

    def test_enforce_output_register_rejects_structurally(self, clobbered):
        assert not replay_validated(clobbered, None,
                                    enforce_output_register=True)

    def test_strict_transfer_model_rejects_in_replay(self, clobbered):
        allocation = allocate_registers(clobbered.dfg, clobbered.cgra,
                                        clobbered, False)
        assert allocation.success
        assert not replay_validated(clobbered, allocation,
                                    neighbour_register_file_access=False)


class TestCallersShareTheOracle:
    def test_heuristic_mapper_reports_no_mapping_the_oracle_rejects(
        self, monkeypatch
    ):
        import repro.baselines.base as base

        seen = []

        def reject(mapping, allocation, **kwargs):
            seen.append(kwargs)
            return False

        monkeypatch.setattr(base, "replay_validated", reject)
        outcome = RampMapper().map(get_kernel("srand"), CGRA.square(2))
        assert not outcome.success
        assert seen
        assert {attempt.status for attempt in outcome.attempts} <= {
            "INVALID", "UNSAT", "REGALLOC_FAIL"
        }
        assert "INVALID" in {attempt.status for attempt in outcome.attempts}
        assert seen[0] == {"enforce_output_register": False,
                           "neighbour_register_file_access": True}

    def test_seed_prepass_drops_a_seed_the_oracle_rejects(self, monkeypatch):
        import repro.search.seed as seed

        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(timeout=120, run_register_allocation=False,
                              random_seed=0, seed_heuristic=True)
        mii = effective_minimum_ii(dfg, cgra)
        assert run_seed(dfg, cgra, config, mii) is not None
        monkeypatch.setattr(seed, "replay_validated",
                            lambda *args, **kwargs: False)
        assert run_seed(dfg, cgra, config, mii) is None


class TestRouteOpcode:
    """``ROUTE`` forwards its operand; external DFG JSON may contain it."""

    @staticmethod
    def _routed_chain() -> DFG:
        return DFG.from_dict({
            "name": "routed",
            "nodes": [
                {"id": 0, "opcode": "const", "constant": 7},
                {"id": 1, "opcode": "route"},
                {"id": 2, "opcode": "route"},
                {"id": 3, "opcode": "add"},
                {"id": 4, "opcode": "phi"},
            ],
            "edges": [
                {"src": 0, "dst": 1}, {"src": 1, "dst": 2},
                {"src": 2, "dst": 3}, {"src": 4, "dst": 3, "operand_index": 1},
                {"src": 3, "dst": 4, "distance": 1},
            ],
        })

    def test_route_is_an_alu_operation(self):
        assert Opcode.ROUTE.op_class is OpClass.ALU
        assert not Opcode.ROUTE.is_memory

    def test_route_survives_json_round_trip(self):
        dfg = self._routed_chain()
        again = DFG.from_dict(dfg.to_dict())
        assert [node.opcode for node in again.nodes] == [
            node.opcode for node in dfg.nodes
        ]

    def test_reference_forwards_route_operand(self):
        history = interpret_dfg(self._routed_chain(), 3)
        for values in history:
            assert values[1] == values[0] == 7
            assert values[2] == values[1]
        assert history[1][3] == history[0][3] + 7

    def test_routed_dfg_maps_exactly_and_replays(self):
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(
            self._routed_chain(), CGRA.square(2)
        )
        assert outcome.success
        assert replay_validated(outcome.mapping, outcome.register_allocation)


@settings(max_examples=6, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=3),
    layers=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_exact_mappings_of_random_layered_dfgs_pass_the_oracle(
    width, layers, seed
):
    dfg = random_layered_dfg(layers, width, seed=seed)
    outcome = SatMapItMapper(MapperConfig(timeout=120)).map(dfg, CGRA.square(4))
    assert outcome.success
    assert replay_validated(outcome.mapping, outcome.register_allocation)
