"""Schedule identity: the table-driven scheduler makes the old decisions.

The references below are verbatim copies of the IMS-with-ejection helpers
as they were before ``CGRA`` grew its hop/affinity/neighbour tables and
``DFG`` its per-node adjacency index: they ask ``are_neighbours`` and
``distance`` per (partner, PE) pair and scan the graph through
``predecessors``/``successors``.  Swapping them into
:mod:`repro.baselines.base` must leave every scheduling pass unchanged: the
same mapping, the same leftover set and the same random draws
(``rng.getstate()`` afterwards), so RAMP, PathSeeker and the seed pre-pass
keep returning byte-identical mappings and IIs.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import PathSeekerMapper, RampMapper
from repro.baselines import base
from repro.baselines.base import height_priorities, modulo_schedule_with_diagnostics
from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import effective_minimum_ii
from repro.cgra.presets import mem_edge_4x4
from repro.dfg.graph import DFG, paper_running_example
from repro.kernels import get_kernel


# ----------------------------------------------------------------------
# Reference: the helpers before the tables, copied verbatim
# ----------------------------------------------------------------------
def _transfer_ok(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    src: int,
    src_pe: int,
    src_flat: int,
    dst: int,
    dst_pe: int,
    dst_flat: int,
    distance: int,
    slots: dict[tuple[int, int], int],
    enforce_output_register: bool,
) -> bool:
    """Whether one dependency is satisfied by the two tentative placements."""
    if not cgra.are_neighbours(src_pe, dst_pe, include_self=True):
        return False
    consumed = dst_flat + distance * ii
    if consumed < src_flat + dfg.node(src).latency:
        return False
    if enforce_output_register and src_pe != dst_pe:
        if consumed - src_flat > ii:
            return False
        for intermediate in range(src_flat + 1, consumed):
            occupant = slots.get((src_pe, intermediate % ii))
            if occupant is not None and occupant != src:
                return False
    return True


def _partner_violations(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    node_id: int,
    pe: int,
    flat: int,
    flat_times: dict[int, int],
    pes: dict[int, int],
    slots: dict[tuple[int, int], int],
    enforce_output_register: bool,
) -> list[int]:
    """Scheduled partners whose dependency with ``node_id`` would be violated."""
    violations: list[int] = []
    for edge in dfg.predecessors(node_id):
        if edge.src in flat_times and not _transfer_ok(
            dfg, cgra, ii, edge.src, pes[edge.src], flat_times[edge.src],
            node_id, pe, flat, edge.distance, slots, enforce_output_register,
        ):
            violations.append(edge.src)
    for edge in dfg.successors(node_id):
        if edge.dst in flat_times and not _transfer_ok(
            dfg, cgra, ii, node_id, pe, flat,
            edge.dst, pes[edge.dst], flat_times[edge.dst], edge.distance, slots,
            enforce_output_register,
        ):
            violations.append(edge.dst)
    return violations


def _candidate_pes(
    dfg: DFG, cgra: CGRA, node_id: int, pes: dict[int, int], rng: random.Random
) -> list[int]:
    """Capable PE candidates ordered by affinity to already-placed partners.

    Only PEs implementing the node's op class are ever considered, so the
    heuristics obey the same capability rules as the SAT encoder and the
    comparison between mappers stays fair on heterogeneous fabrics.
    """
    partner_pes = [
        pes[edge.src] for edge in dfg.predecessors(node_id) if edge.src in pes
    ] + [
        pes[edge.dst] for edge in dfg.successors(node_id) if edge.dst in pes
    ]
    candidates = list(cgra.pes_supporting(dfg.node(node_id).opcode))
    rng.shuffle(candidates)
    if not partner_pes:
        return candidates

    def affinity(pe: int) -> int:
        return sum(0 if cgra.are_neighbours(partner, pe) else cgra.distance(partner, pe)
                   for partner in partner_pes)

    candidates.sort(key=affinity)
    return candidates


@pytest.fixture
def reference_helpers(monkeypatch):
    """Run the scheduler on the reference helpers for the test's duration."""

    def install():
        monkeypatch.setattr(base, "_candidate_pes", _candidate_pes)
        monkeypatch.setattr(base, "_partner_violations", _partner_violations)
        monkeypatch.setattr(base, "_transfer_ok", _transfer_ok)

    return install


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------
KERNELS = ("running_example", "srand", "basicmath", "nw", "gsm", "bitcount")

FABRICS = {
    "mesh2": lambda: CGRA.square(2),
    "mesh3": lambda: CGRA.square(3),
    "torus3": lambda: CGRA.square(3, topology="torus"),
    "diagonal3": lambda: CGRA.square(3, topology="diagonal"),
    "mem_edge_4x4": mem_edge_4x4,
}


def _kernel(name: str) -> DFG:
    return paper_running_example() if name == "running_example" else get_kernel(name)


def _priorities(dfg: DFG, perturb_seed: int) -> dict[int, float]:
    """Height priorities, optionally jittered so ties break differently."""
    heights = height_priorities(dfg)
    if not perturb_seed:
        return heights
    jitter = random.Random(perturb_seed)
    return {node: height + jitter.random() for node, height in heights.items()}


def _passes(dfg: DFG, cgra: CGRA):
    """(ii, priorities, seed, enforce_output_register) cases for one problem."""
    mii = effective_minimum_ii(dfg, cgra)
    for ii in (mii, mii + 3):
        for seed in (0, 11):
            for enforce in (False, True):
                yield ii, _priorities(dfg, seed), seed, enforce


def _schedule_all(dfg: DFG, cgra: CGRA) -> list:
    results = []
    for ii, priorities, seed, enforce in _passes(dfg, cgra):
        rng = random.Random(seed)
        mapping, leftover = modulo_schedule_with_diagnostics(
            dfg, cgra, ii, priorities, rng, enforce_output_register=enforce,
        )
        results.append((
            ii,
            None if mapping is None else mapping.to_dict(),
            leftover,
            rng.getstate(),
        ))
    return results


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_scheduling_passes_are_identical(kernel, fabric, reference_helpers):
    dfg = _kernel(kernel)
    current = _schedule_all(dfg, FABRICS[fabric]())
    reference_helpers()
    reference = _schedule_all(dfg, FABRICS[fabric]())
    assert current == reference
    assert any(mapping is not None for _, mapping, _, _ in current)


@pytest.mark.parametrize("mapper_cls", [RampMapper, PathSeekerMapper])
@pytest.mark.parametrize("kernel, fabric", [
    ("gsm", "mesh2"), ("nw", "torus3"), ("basicmath", "mem_edge_4x4"),
])
def test_mappers_return_identical_results(mapper_cls, kernel, fabric,
                                          reference_helpers):
    def run():
        outcome = mapper_cls().map(_kernel(kernel), FABRICS[fabric]())
        return (
            outcome.ii,
            [(attempt.ii, attempt.status) for attempt in outcome.attempts],
            None if outcome.mapping is None else outcome.mapping.to_dict(),
        )

    current = run()
    reference_helpers()
    assert run() == current
    assert current[2] is not None
