"""Mobility Schedule and Kernel Mobility Schedule (KMS).

The Mobility Schedule (MS) lists, for every time slot of the flat schedule,
the nodes whose mobility window (ASAP..ALAP) covers that slot (paper
Figure 4).  The Kernel Mobility Schedule folds the MS modulo the candidate II
and labels every occurrence with the iteration it came from (paper Figure 5);
it is "a superset of all possible kernels" and the domain over which the SAT
literals are created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dfg.analysis import alap_schedule, asap_schedule, schedule_length
from repro.dfg.graph import DFG
from repro.exceptions import MappingError


@dataclass(frozen=True)
class KMSSlot:
    """One possible position of a node inside the kernel.

    ``cycle`` is the kernel cycle (0 .. II-1), ``iteration`` the fold index
    the slot originated from, and ``flat_time = iteration * II + cycle`` the
    position in the unfolded mobility schedule.
    """

    node_id: int
    cycle: int
    iteration: int

    def flat_time(self, ii: int) -> int:
        return self.iteration * ii + self.cycle


@dataclass
class MobilitySchedule:
    """ASAP/ALAP derived mobility table for a DFG."""

    dfg: DFG
    length: int
    asap: dict[int, int]
    alap: dict[int, int]

    @classmethod
    def build(cls, dfg: DFG, slack: int = 0) -> "MobilitySchedule":
        """Construct the mobility schedule.

        ``slack`` adds extra slots beyond the critical-path length, widening
        every mobility window (more scheduling freedom at the cost of a larger
        SAT encoding).
        """
        if slack < 0:
            raise MappingError(f"schedule slack must be non-negative, got {slack}")
        asap = asap_schedule(dfg)
        length = max(1, schedule_length(dfg, asap) + slack)
        alap = alap_schedule(dfg, length, asap=asap)
        return cls(dfg=dfg, length=length, asap=asap, alap=alap)

    def window(self, node_id: int) -> range:
        """The inclusive mobility window of a node as a ``range``."""
        return range(self.asap[node_id], self.alap[node_id] + 1)

    def mobility(self, node_id: int) -> int:
        """Number of alternative slots for a node (>= 1)."""
        return self.alap[node_id] - self.asap[node_id] + 1

    def rows(self) -> list[list[int]]:
        """Node ids present at every time slot (paper Figure 4, MS column)."""
        table: list[list[int]] = [[] for _ in range(self.length)]
        for node_id in self.dfg.node_ids:
            for time in self.window(node_id):
                table[time].append(node_id)
        return table

    def __str__(self) -> str:
        lines = ["time | nodes"]
        for time, nodes in enumerate(self.rows()):
            lines.append(f"{time:4d} | {' '.join(str(n) for n in nodes)}")
        return "\n".join(lines)


@dataclass
class KernelMobilitySchedule:
    """The mobility schedule folded modulo the candidate II."""

    dfg: DFG
    mobility_schedule: MobilitySchedule
    ii: int
    num_iterations: int
    slots: dict[int, list[KMSSlot]] = field(default_factory=dict)

    @classmethod
    def build(cls, mobility_schedule: MobilitySchedule, ii: int) -> "KernelMobilitySchedule":
        """Fold the mobility schedule by ``ii`` (paper Figure 5)."""
        if ii < 1:
            raise MappingError(f"II must be >= 1, got {ii}")
        length = mobility_schedule.length
        num_iterations = max(1, math.ceil(length / ii))
        slots: dict[int, list[KMSSlot]] = {}
        for node_id in mobility_schedule.dfg.node_ids:
            node_slots = []
            for time in mobility_schedule.window(node_id):
                node_slots.append(
                    KMSSlot(node_id=node_id, cycle=time % ii, iteration=time // ii)
                )
            slots[node_id] = node_slots
        return cls(
            dfg=mobility_schedule.dfg,
            mobility_schedule=mobility_schedule,
            ii=ii,
            num_iterations=num_iterations,
            slots=slots,
        )

    # ------------------------------------------------------------------
    def node_slots(self, node_id: int) -> list[KMSSlot]:
        """All (cycle, iteration) positions available to a node."""
        try:
            return self.slots[node_id]
        except KeyError as exc:
            raise MappingError(f"node {node_id} has no KMS slots") from exc

    def cycle_slots(self, cycle: int) -> list[KMSSlot]:
        """All node occurrences folded onto kernel cycle ``cycle``."""
        if not 0 <= cycle < self.ii:
            raise MappingError(f"cycle {cycle} outside kernel of II={self.ii}")
        result = []
        for node_slots in self.slots.values():
            result.extend(slot for slot in node_slots if slot.cycle == cycle)
        return result

    def rows(self) -> list[list[tuple[int, int]]]:
        """Per kernel cycle, the (node, iteration) occurrences (Figure 5)."""
        table: list[list[tuple[int, int]]] = [[] for _ in range(self.ii)]
        for node_id in sorted(self.slots):
            for slot in self.slots[node_id]:
                table[slot.cycle].append((slot.node_id, slot.iteration))
        for row in table:
            row.sort(key=lambda entry: (entry[1], entry[0]))
        return table

    @property
    def num_slots(self) -> int:
        """Total number of (node, cycle, iteration) occurrences."""
        return sum(len(node_slots) for node_slots in self.slots.values())

    def __str__(self) -> str:
        lines = [f"KMS (II={self.ii}, iterations={self.num_iterations})",
                 "cycle | node@iteration"]
        for cycle, row in enumerate(self.rows()):
            entries = " ".join(f"{node}@{iteration}" for node, iteration in row)
            lines.append(f"{cycle:5d} | {entries}")
        return "\n".join(lines)
