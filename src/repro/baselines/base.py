"""Shared machinery of the heuristic baseline mappers.

Both RAMP-like and PathSeeker-like mappers are built on iterative modulo
scheduling (Rau's IMS) extended with placement, the algorithmic family every
modern CGRA heuristic mapper descends from: nodes are scheduled in priority
order into a modulo reservation table; a node that cannot be scheduled in its
II-wide window is *force-placed* and the conflicting nodes are evicted and
rescheduled, within an operation budget.  If the budget runs out the II is
increased.

This module holds that scheduling engine and the common iterative-II driver;
the concrete baselines only decide how priorities are produced, how ties are
broken and how many retries each II receives.
"""

from __future__ import annotations

import functools
import heapq
import operator
import random
import time
from dataclasses import dataclass

from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import check_kernel_fits, effective_minimum_ii
from repro.core.mapper import IIAttempt, MappingOutcome
from repro.core.mapping import Mapping
from repro.core.regalloc import allocate_registers
from repro.dfg.analysis import forward_topological_order
from repro.dfg.graph import DFG
from repro.simulator.machine import replay_validated


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs shared by the heuristic mappers."""

    max_ii: int = 50
    timeout: float | None = None
    #: Number of scheduling attempts (distinct priority orders / seeds) per II.
    attempts_per_ii: int = 8
    #: Scheduling-operation budget per attempt, as a multiple of the node
    #: count (Rau's IMS uses a comparable budget).
    budget_factor: int = 12
    #: Enforce the output-register survival rule while placing.  Default off:
    #: like the SAT mapper's default model, a consumer reads the producer's
    #: register file and register allocation accounts for the liveness.
    enforce_output_register: bool = False
    neighbour_register_file_access: bool = True
    run_register_allocation: bool = True
    random_seed: int | None = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        # A value below these bounds would not fail: the mapper would walk
        # the IIs without scheduling anything and report a plain failure.
        for name in ("max_ii", "attempts_per_ii", "budget_factor"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"BaselineConfig.{name} must be >= 1, got {value}")
        # ``timeout=0`` stays valid: like ``MapperConfig``, it is the
        # anytime probe that reports a timeout after zero attempts.
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(
                f"BaselineConfig.timeout must be None or >= 0, got {self.timeout}"
            )


class HeuristicMapper:
    """Base class implementing the iterative-II scheduling loop."""

    name = "heuristic"

    def __init__(self, config: BaselineConfig | None = None) -> None:
        self.config = config or BaselineConfig()

    # ------------------------------------------------------------------
    # Interface shared with SatMapItMapper
    # ------------------------------------------------------------------
    def map(self, dfg: DFG, cgra: CGRA, start_ii: int | None = None) -> MappingOutcome:
        """Iteratively search for the smallest II the heuristic can realise."""
        config = self.config
        dfg.validate()
        check_kernel_fits(dfg, cgra)
        start = time.perf_counter()
        rng = random.Random(config.random_seed)
        mii = effective_minimum_ii(dfg, cgra)
        first_ii = max(start_ii or mii, 1)
        outcome = MappingOutcome(
            success=False, dfg_name=dfg.name, cgra_name=cgra.name, minimum_ii=mii
        )

        for ii in range(first_ii, config.max_ii + 1):
            if self._out_of_time(start):
                outcome.timed_out = True
                break
            attempt = IIAttempt(ii=ii, schedule_slack=0, status="UNSAT")
            outcome.attempts.append(attempt)
            solve_start = time.perf_counter()
            mapping = self._try_ii(dfg, cgra, ii, rng, start)
            attempt.solve_time = time.perf_counter() - solve_start
            if mapping is None:
                if self._out_of_time(start):
                    attempt.status = "UNKNOWN"
                    outcome.timed_out = True
                    break
                continue
            allocation = None
            if config.run_register_allocation:
                allocation = allocate_registers(
                    dfg, cgra, mapping, config.neighbour_register_file_access
                )
                if not allocation.success:
                    attempt.status = "REGALLOC_FAIL"
                    continue
                mapping.apply_allocation(allocation)
            if not replay_validated(
                mapping,
                allocation,
                enforce_output_register=config.enforce_output_register,
                neighbour_register_file_access=(
                    config.neighbour_register_file_access
                ),
            ):
                # The SAT path refuses to report a mapping its legality
                # oracle rejects; the heuristics get the same discipline —
                # an ejection-scheduler bug must surface as a failed II,
                # never as a reported "success" that does not execute.
                attempt.status = "INVALID"
                continue
            attempt.status = "SAT"
            outcome.success = True
            outcome.ii = ii
            outcome.mapping = mapping
            outcome.register_allocation = allocation
            break

        outcome.total_time = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _priorities(self, dfg: DFG, ii: int, attempt: int,
                    rng: random.Random) -> dict[int, float]:
        """Node priorities (higher = scheduled earlier) for one attempt."""
        raise NotImplementedError

    def _try_ii(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: random.Random, start: float
    ) -> Mapping | None:
        for attempt in range(self.config.attempts_per_ii):
            if self._out_of_time(start):
                return None
            priorities = self._priorities(dfg, ii, attempt, rng)
            mapping = modulo_schedule_with_ejection(
                dfg,
                cgra,
                ii,
                priorities,
                rng,
                budget_factor=self.config.budget_factor,
                enforce_output_register=self.config.enforce_output_register,
            )
            if mapping is not None:
                return mapping
        return None

    def _out_of_time(self, start: float) -> bool:
        timeout = self.config.timeout
        return timeout is not None and (time.perf_counter() - start) >= timeout


# ----------------------------------------------------------------------
# Priority functions
# ----------------------------------------------------------------------
def node_heights(dfg: DFG) -> dict[int, int]:
    """Height (longest forward path to any sink) of every node."""
    heights: dict[int, int] = {}
    for node_id in reversed(forward_topological_order(dfg)):
        heights[node_id] = max(
            (1 + heights[edge.dst] for edge in dfg.successors(node_id)
             if edge.distance == 0),
            default=0,
        )
    return heights


def height_priority_order(dfg: DFG) -> list[int]:
    """Deterministic list-scheduling order: tallest nodes first."""
    heights = node_heights(dfg)
    return sorted(dfg.node_ids, key=lambda n: (-heights[n], n))


def height_priorities(dfg: DFG) -> dict[int, float]:
    """Height-based priorities (the classic IMS priority function)."""
    return {node: float(height) for node, height in node_heights(dfg).items()}


# ----------------------------------------------------------------------
# Iterative modulo scheduling with ejection (Rau-style IMS + placement)
# ----------------------------------------------------------------------
def modulo_schedule_with_ejection(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    priorities: dict[int, float],
    rng: random.Random,
    budget_factor: int = 12,
    enforce_output_register: bool = False,
) -> Mapping | None:
    """One IMS pass: schedule + place all nodes, ejecting on conflicts.

    Returns a legal :class:`Mapping` or ``None`` when the operation budget is
    exhausted before every node is scheduled.
    """
    mapping, _leftover = modulo_schedule_with_diagnostics(
        dfg, cgra, ii, priorities, rng,
        budget_factor=budget_factor,
        enforce_output_register=enforce_output_register,
    )
    return mapping


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
    # Highest priority first, ties to the lowest node id: a min-heap on
    # (-priority, node) pops the node ``max(unscheduled, key=(priority,
    # -node))`` would pick.  It holds exactly the unscheduled nodes.
    queue = [(-priorities.get(node_id, 0.0), node_id) for node_id in dfg.node_ids]
    heapq.heapify(queue)
    flat_times: dict[int, int] = {}
    pes: dict[int, int] = {}
    slots: dict[tuple[int, int], int] = {}
    #: Last time a node was force-placed (Rau's progress guarantee).
    previous_time: dict[int, int] = {}
    operations = 0

    while queue and operations < budget:
        operations += 1
        _, node_id = heapq.heappop(queue)

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
        for victim in _evict_conflicts(
            dfg, cgra, ii, node_id, forced_pe, forced_time, flat_times, pes, slots,
            enforce_output_register,
        ):
            heapq.heappush(queue, (-priorities.get(victim, 0.0), victim))
        flat_times[node_id] = forced_time
        pes[node_id] = forced_pe
        slots[(forced_pe, forced_time % ii)] = node_id

    if queue:
        return None, {node_id for _, node_id in queue}

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
    if dst_pe not in cgra.neighbour_sets[src_pe]:
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
    """Try to place ``node_id`` inside its II-wide window without ejections.

    The window is scanned cycle by cycle, candidate PEs in affinity order,
    and the first free slot every placed partner accepts is taken.  Each
    partner is tested once rather than per slot: its one-hop reach keeps
    or drops a PE for the whole window, and its timing clamps the window
    (a predecessor from below at ``src_flat + latency - distance * ii``, a
    successor from above at ``dst_flat + distance * ii - latency``).  Only
    the output-register rule depends on the slot and is checked per slot.
    """
    node = dfg.node(node_id)
    lowest = earliest
    latest = earliest + ii - 1
    pred_pes: list[int] = []
    succ_pes: list[int] = []
    for edge in dfg.predecessors(node_id):
        src_flat = flat_times.get(edge.src)
        if src_flat is not None:
            pred_pes.append(pes[edge.src])
            lowest = max(
                lowest, src_flat + dfg.node(edge.src).latency - edge.distance * ii
            )
    for edge in dfg.successors(node_id):
        dst_flat = flat_times.get(edge.dst)
        if dst_flat is not None:
            succ_pes.append(pes[edge.dst])
            latest = min(latest, dst_flat + edge.distance * ii - node.latency)
    # Ranked (and the random draws made) even when the window is empty.
    candidate_pes = _rank_pes(cgra, node.opcode, pred_pes + succ_pes, rng)
    if lowest > latest:
        return False
    neighbour_sets = cgra.neighbour_sets
    for src_pe in pred_pes:
        reach = neighbour_sets[src_pe]
        candidate_pes = [pe for pe in candidate_pes if pe in reach]
    for dst_pe in succ_pes:
        candidate_pes = [pe for pe in candidate_pes if dst_pe in neighbour_sets[pe]]
    for flat in range(lowest, latest + 1):
        cycle = flat % ii
        for pe in candidate_pes:
            if (pe, cycle) in slots:
                continue
            if enforce_output_register and _partner_violations(
                dfg, cgra, ii, node_id, pe, flat, flat_times, pes, slots, True,
            ):
                continue
            flat_times[node_id] = flat
            pes[node_id] = pe
            slots[(pe, cycle)] = node_id
            return True
    return False


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
    return _rank_pes(cgra, dfg.node(node_id).opcode, partner_pes, rng)


def _rank_pes(
    cgra: CGRA, opcode: str, partner_pes: list[int], rng: random.Random
) -> list[int]:
    """The PEs able to run ``opcode``, shuffled, then stably sorted by
    their summed affinity to ``partner_pes``."""
    candidates = list(cgra.pes_supporting(opcode))
    _shuffle(candidates, rng.getrandbits)
    if not partner_pes:
        return candidates
    affinity = cgra.affinity_table
    # Per-PE affinity sums over every partner, one row at a time.
    totals = affinity[partner_pes[0]]
    for partner in partner_pes[1:]:
        totals = list(map(operator.add, totals, affinity[partner]))
    candidates.sort(key=totals.__getitem__)
    return candidates


def _shuffle(items: list, getrandbits) -> None:
    """Shuffle ``items`` in place exactly as ``random.Random.shuffle`` does.

    The same Fisher-Yates swaps and the same ``getrandbits`` draws (the
    rejection loop of ``Random._randbelow``), without its two method
    calls per element.
    """
    for i, bits in _shuffle_steps(len(items)):
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


@functools.cache
def _shuffle_steps(length: int) -> tuple[tuple[int, int], ...]:
    """``(i, (i + 1).bit_length())`` for each swap of a shuffle, in order."""
    return tuple((i, (i + 1).bit_length()) for i in reversed(range(1, length)))


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
    # The first free candidate, else the first one (its occupant is evicted).
    return next((pe for pe in candidates if (pe, cycle) not in slots), candidates[0])


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
    enforce_output_register: bool,
) -> list[int]:
    """Unschedule the slot occupant and every partner the forced node violates.

    Returns the evicted nodes.
    """
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
    evicted = []
    for victim in victims:
        if victim == node_id or victim not in flat_times:
            continue
        del slots[(pes[victim], flat_times[victim] % ii)]
        del flat_times[victim]
        del pes[victim]
        evicted.append(victim)
    return evicted
