"""Schedule identity: the current scheduler makes the old decisions.

The reference engine below is a verbatim copy of the IMS-with-ejection pass
as it was before two rewrites that must not change a single decision:

* the helpers from before ``CGRA`` grew its hop/affinity/neighbour tables
  and ``DFG`` its per-node adjacency index: they ask ``are_neighbours`` and
  ``distance`` per (partner, PE) pair and scan the graph through
  ``predecessors``/``successors``;
* the loop and window scan from before the window bounds: it picks the next
  node with ``max`` over the unscheduled set and tests every placed partner
  at every (cycle, PE) slot of the II-wide window.

Installing it in place of :mod:`repro.baselines.base`'s pass must leave
every scheduling pass unchanged: the same mapping, the same leftover set and
the same random draws (``rng.getstate()`` afterwards), so RAMP, PathSeeker
and the seed pre-pass keep returning byte-identical mappings and IIs.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import PathSeekerMapper, RampMapper, base, pathseeker
from repro.baselines.base import height_priorities
from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import effective_minimum_ii
from repro.cgra.presets import mem_edge_4x4
from repro.core.mapping import Mapping
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


# ----------------------------------------------------------------------
# Reference: the scan before the window bounds, copied verbatim
# ----------------------------------------------------------------------
def modulo_schedule_with_diagnostics(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    priorities: dict[int, float],
    rng: random.Random,
    budget_factor: int = 12,
    enforce_output_register: bool = False,
) -> tuple[Mapping | None, set[int]]:
    """IMS pass that also reports which nodes were left unscheduled.

    The second element of the result is the set of nodes still unscheduled
    when the budget ran out (empty on success); PathSeeker uses it for its
    failure-driven priority adjustment.
    """
    budget = max(budget_factor * dfg.num_nodes, 4 * dfg.num_nodes)
    unscheduled = set(dfg.node_ids)
    flat_times: dict[int, int] = {}
    pes: dict[int, int] = {}
    slots: dict[tuple[int, int], int] = {}
    #: Last time a node was force-placed (Rau's progress guarantee).
    previous_time: dict[int, int] = {}
    operations = 0

    while unscheduled and operations < budget:
        operations += 1
        node_id = max(unscheduled, key=lambda n: (priorities.get(n, 0.0), -n))
        unscheduled.discard(node_id)

        earliest = _earliest_start(dfg, ii, node_id, flat_times)
        if node_id in previous_time:
            earliest = max(earliest, previous_time[node_id] + 1)

        placed = _try_window(
            dfg, cgra, ii, node_id, earliest, flat_times, pes, slots, rng,
            enforce_output_register,
        )
        if placed:
            continue

        # Force placement at the earliest slot and eject whatever conflicts.
        forced_time = earliest
        previous_time[node_id] = forced_time
        forced_pe = _choose_forced_pe(dfg, cgra, node_id, pes, slots, forced_time % ii, rng)
        _evict_conflicts(
            dfg, cgra, ii, node_id, forced_pe, forced_time, flat_times, pes, slots,
            unscheduled, enforce_output_register,
        )
        flat_times[node_id] = forced_time
        pes[node_id] = forced_pe
        slots[(forced_pe, forced_time % ii)] = node_id

    if unscheduled:
        return None, set(unscheduled)

    mapping = Mapping(dfg=dfg, cgra=cgra, ii=ii)
    for node_id, flat in flat_times.items():
        mapping.place(node_id, pes[node_id], flat % ii, flat // ii)
    if mapping.violations(check_overwrite=enforce_output_register):
        return None, set(dfg.node_ids)
    return mapping, set()


def _earliest_start(
    dfg: DFG, ii: int, node_id: int, flat_times: dict[int, int]
) -> int:
    earliest = 0
    for edge in dfg.predecessors(node_id):
        if edge.src in flat_times:
            earliest = max(
                earliest,
                flat_times[edge.src] + dfg.node(edge.src).latency - edge.distance * ii,
            )
    return max(earliest, 0)


def _try_window(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    node_id: int,
    earliest: int,
    flat_times: dict[int, int],
    pes: dict[int, int],
    slots: dict[tuple[int, int], int],
    rng: random.Random,
    enforce_output_register: bool,
) -> bool:
    """Try to place ``node_id`` inside its II-wide window without ejections."""
    candidate_pes = _candidate_pes(dfg, cgra, node_id, pes, rng)
    for flat in range(earliest, earliest + ii):
        cycle = flat % ii
        for pe in candidate_pes:
            if (pe, cycle) in slots:
                continue
            if _partner_violations(
                dfg, cgra, ii, node_id, pe, flat, flat_times, pes, slots,
                enforce_output_register,
            ):
                continue
            flat_times[node_id] = flat
            pes[node_id] = pe
            slots[(pe, cycle)] = node_id
            return True
    return False


def _choose_forced_pe(
    dfg: DFG,
    cgra: CGRA,
    node_id: int,
    pes: dict[int, int],
    slots: dict[tuple[int, int], int],
    cycle: int,
    rng: random.Random,
) -> int:
    """PE used for a forced placement: close to partners, low eviction cost."""
    candidates = _candidate_pes(dfg, cgra, node_id, pes, rng)

    def cost(pe: int) -> int:
        return 1 if (pe, cycle) in slots else 0

    return min(candidates, key=cost)


def _evict_conflicts(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    node_id: int,
    pe: int,
    flat: int,
    flat_times: dict[int, int],
    pes: dict[int, int],
    slots: dict[tuple[int, int], int],
    unscheduled: set[int],
    enforce_output_register: bool,
) -> None:
    """Remove the slot occupant and every partner violated by the forced node."""
    occupant = slots.get((pe, flat % ii))
    victims = set()
    if occupant is not None and occupant != node_id:
        victims.add(occupant)
    victims.update(
        _partner_violations(
            dfg, cgra, ii, node_id, pe, flat, flat_times, pes, slots,
            enforce_output_register,
        )
    )
    for victim in victims:
        if victim == node_id or victim not in flat_times:
            continue
        del slots[(pes[victim], flat_times[victim] % ii)]
        del flat_times[victim]
        del pes[victim]
        unscheduled.add(victim)


@pytest.fixture
def reference_engine(monkeypatch):
    """Run the scheduler on the reference engine for the test's duration."""

    def install():
        monkeypatch.setattr(base, "modulo_schedule_with_diagnostics",
                            modulo_schedule_with_diagnostics)
        monkeypatch.setattr(pathseeker, "modulo_schedule_with_diagnostics",
                            modulo_schedule_with_diagnostics)

    return install


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------
KERNELS = ("running_example", "srand", "basicmath", "nw", "gsm", "bitcount")

FABRICS = {
    "mesh2": lambda: CGRA.square(2),
    "mesh3": lambda: CGRA.square(3),
    "mesh4": lambda: CGRA.square(4),
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
        mapping, leftover = base.modulo_schedule_with_diagnostics(
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
def test_scheduling_passes_are_identical(kernel, fabric, reference_engine):
    dfg = _kernel(kernel)
    current = _schedule_all(dfg, FABRICS[fabric]())
    reference_engine()
    reference = _schedule_all(dfg, FABRICS[fabric]())
    assert current == reference
    assert any(mapping is not None for _, mapping, _, _ in current)


@pytest.mark.parametrize("mapper_cls", [RampMapper, PathSeekerMapper])
@pytest.mark.parametrize("kernel, fabric", [
    ("gsm", "mesh2"), ("nw", "torus3"), ("basicmath", "mem_edge_4x4"),
])
def test_mappers_return_identical_results(mapper_cls, kernel, fabric,
                                          reference_engine):
    def run():
        outcome = mapper_cls().map(_kernel(kernel), FABRICS[fabric]())
        return (
            outcome.ii,
            [(attempt.ii, attempt.status) for attempt in outcome.attempts],
            None if outcome.mapping is None else outcome.mapping.to_dict(),
        )

    current = run()
    reference_engine()
    assert run() == current
    assert current[2] is not None


@pytest.mark.parametrize("kernel", ["sha", "patricia"])
def test_ejection_heavy_passes_are_identical(kernel, reference_engine, monkeypatch):
    """At the MII on a 4x4 mesh most operations are forced placements."""
    dfg, cgra = get_kernel(kernel), CGRA.square(4)
    ii = effective_minimum_ii(dfg, cgra)
    forced = []
    evict = base._evict_conflicts

    def counting_evict(*args, **kwargs):
        forced.append(args[3])
        return evict(*args, **kwargs)

    monkeypatch.setattr(base, "_evict_conflicts", counting_evict)

    def run():
        results = []
        for seed in (0, 5, 11):
            for enforce in (False, True):
                rng = random.Random(seed)
                mapping, leftover = base.modulo_schedule_with_diagnostics(
                    dfg, cgra, ii, _priorities(dfg, seed), rng,
                    enforce_output_register=enforce,
                )
                results.append((
                    None if mapping is None else mapping.to_dict(),
                    leftover,
                    rng.getstate(),
                ))
        return results

    current = run()
    assert len(forced) > 6 * 4 * dfg.num_nodes
    reference_engine()
    assert run() == current
