"""Mapping result data structure and legality checking.

A :class:`Mapping` binds every DFG node to a PE and a kernel cycle (plus the
iteration label coming from the KMS fold).  The class knows how to check its
own legality against the DFG and the CGRA, independently of which mapper
produced it — the SAT mapper, a heuristic baseline and the exhaustive oracle
all return the same structure, and the test-suite validates them with the same
code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cgra.architecture import CGRA
from repro.dfg.graph import DFG
from repro.exceptions import MappingError


@dataclass(frozen=True)
class Placement:
    """Where and when a single node executes inside the kernel."""

    node_id: int
    pe: int
    cycle: int
    iteration: int

    def flat_time(self, ii: int) -> int:
        """Position in the flat (unfolded) schedule."""
        return self.iteration * ii + self.cycle


@dataclass
class Mapping:
    """A modulo-scheduled mapping of a DFG onto a CGRA."""

    dfg: DFG
    cgra: CGRA
    ii: int
    placements: dict[int, Placement] = field(default_factory=dict)
    registers: dict[int, int] = field(default_factory=dict)
    #: ``node -> [register per live copy]`` from register allocation (values
    #: whose live range exceeds the II rotate through several registers).
    #: Carried so an archived mapping replays through the simulator exactly,
    #: without re-running allocation.
    register_copies: dict[int, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def place(self, node_id: int, pe: int, cycle: int, iteration: int = 0) -> None:
        """Record the placement of one node."""
        if not self.dfg.has_node(node_id):
            raise MappingError(f"node {node_id} is not part of DFG {self.dfg.name!r}")
        self.placements[node_id] = Placement(node_id, pe, cycle, iteration)

    def placement(self, node_id: int) -> Placement:
        try:
            return self.placements[node_id]
        except KeyError as exc:
            raise MappingError(f"node {node_id} has no placement") from exc

    def apply_allocation(self, allocation) -> None:
        """Record a successful register allocation on the mapping.

        Stores the first-copy assignment (``registers``) and the full
        per-copy rotation (``register_copies``) so the mapping archives and
        replays without the allocation object.
        """
        self.registers = dict(allocation.assignment)
        self.register_copies = {
            node: list(regs) for node, regs in allocation.all_copies.items()
        }

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def schedule_length(self) -> int:
        """Length of the flat schedule implied by the placements."""
        if not self.placements:
            return 0
        return max(p.flat_time(self.ii) for p in self.placements.values()) + 1

    @property
    def num_kernel_iterations(self) -> int:
        """Number of loop iterations in flight in the steady-state kernel."""
        if not self.placements:
            return 0
        return max(p.iteration for p in self.placements.values()) + 1

    def pe_utilisation(self) -> float:
        """Fraction of (PE, cycle) kernel slots occupied by instructions."""
        total_slots = self.cgra.num_pes * self.ii
        if total_slots == 0:
            return 0.0
        return len(self.placements) / total_slots

    def kernel_table(self) -> list[list[int | None]]:
        """``table[cycle][pe]`` = node id or ``None`` (the kernel contents)."""
        table: list[list[int | None]] = [
            [None] * self.cgra.num_pes for _ in range(self.ii)
        ]
        for placement in self.placements.values():
            table[placement.cycle][placement.pe] = placement.node_id
        return table

    def nodes_on_pe(self, pe: int) -> list[Placement]:
        """All placements assigned to a given PE, ordered by cycle."""
        result = [p for p in self.placements.values() if p.pe == pe]
        result.sort(key=lambda p: (p.cycle, p.iteration))
        return result

    # ------------------------------------------------------------------
    # Legality checking
    # ------------------------------------------------------------------
    def violations(self, check_overwrite: bool = False) -> list[str]:
        """Return a human-readable list of legality violations (empty = legal).

        Checks performed:

        * every DFG node is placed exactly once on an existing PE and a cycle
          within ``[0, II)``;
        * every node sits on a PE whose capability set covers its opcode
          (heterogeneous fabrics);
        * no two nodes share a (PE, kernel cycle) slot;
        * every dependency connects neighbouring (or identical) PEs;
        * every dependency respects modulo-schedule timing:
          ``t_dst + distance * II >= t_src + latency`` in flat time;
        * optionally, values forwarded to a neighbour are not overwritten in
          the producer's output register before being consumed.
        """
        problems: list[str] = []
        problems.extend(self._check_completeness())
        problems.extend(self._check_capabilities())
        problems.extend(self._check_slot_exclusivity())
        problems.extend(self._check_dependencies())
        if check_overwrite:
            problems.extend(self._check_output_register())
        return problems

    def is_valid(self, check_overwrite: bool = False) -> bool:
        """Whether the mapping is legal."""
        return not self.violations(check_overwrite=check_overwrite)

    def _check_completeness(self) -> list[str]:
        problems = []
        for node in self.dfg.nodes:
            if node.node_id not in self.placements:
                problems.append(f"node {node.node_id} is not placed")
        for placement in self.placements.values():
            if not 0 <= placement.pe < self.cgra.num_pes:
                problems.append(
                    f"node {placement.node_id} placed on PE {placement.pe}, "
                    f"but the CGRA has {self.cgra.num_pes} PEs"
                )
            if not 0 <= placement.cycle < self.ii:
                problems.append(
                    f"node {placement.node_id} placed at cycle {placement.cycle}, "
                    f"outside the kernel of II={self.ii}"
                )
        return problems

    def _check_capabilities(self) -> list[str]:
        problems = []
        for placement in self.placements.values():
            if not 0 <= placement.pe < self.cgra.num_pes:
                continue  # reported by the completeness check
            node = self.dfg.node(placement.node_id)
            pe = self.cgra.pe(placement.pe)
            if not pe.supports(node.opcode):
                problems.append(
                    f"node {node.node_id} ({node.opcode.value}) placed on "
                    f"{pe.name} which only implements "
                    f"{'/'.join(sorted(c.value for c in pe.capabilities))}"
                )
        return problems

    def _check_slot_exclusivity(self) -> list[str]:
        problems = []
        occupied: dict[tuple[int, int], int] = {}
        for placement in self.placements.values():
            key = (placement.pe, placement.cycle)
            if key in occupied:
                problems.append(
                    f"PE {placement.pe} at cycle {placement.cycle} hosts both node "
                    f"{occupied[key]} and node {placement.node_id}"
                )
            else:
                occupied[key] = placement.node_id
        return problems

    def _check_dependencies(self) -> list[str]:
        problems = []
        for edge in self.dfg.edges:
            if edge.src not in self.placements or edge.dst not in self.placements:
                continue
            src = self.placements[edge.src]
            dst = self.placements[edge.dst]
            if not all(0 <= pe < self.cgra.num_pes for pe in (src.pe, dst.pe)):
                continue  # reported by the completeness check
            if not self.cgra.are_neighbours(src.pe, dst.pe, include_self=True):
                problems.append(
                    f"dependency {edge.src}->{edge.dst}: PE {src.pe} and PE {dst.pe} "
                    "are not neighbours"
                )
            produced = src.flat_time(self.ii) + self.dfg.node(edge.src).latency
            consumed = dst.flat_time(self.ii) + edge.distance * self.ii
            if consumed < produced:
                problems.append(
                    f"dependency {edge.src}->{edge.dst} (distance {edge.distance}): "
                    f"consumed at flat time {consumed} before being produced at {produced}"
                )
        return problems

    def _check_output_register(self) -> list[str]:
        """Check Eq. 5: neighbour transfers survive in the output register."""
        problems = []
        occupied_cycles: dict[int, set[int]] = {}
        for placement in self.placements.values():
            occupied_cycles.setdefault(placement.pe, set()).add(placement.cycle)
        for edge in self.dfg.edges:
            if edge.src not in self.placements or edge.dst not in self.placements:
                continue
            src = self.placements[edge.src]
            dst = self.placements[edge.dst]
            if src.pe == dst.pe:
                continue  # delivered through the local register file
            produced = src.flat_time(self.ii) + self.dfg.node(edge.src).latency
            consumed = dst.flat_time(self.ii) + edge.distance * self.ii
            span = consumed - src.flat_time(self.ii)
            if span > self.ii:
                problems.append(
                    f"dependency {edge.src}->{edge.dst}: the producer re-executes "
                    f"before the value is consumed (span {span} > II {self.ii})"
                )
                continue
            for flat in range(src.flat_time(self.ii) + 1, consumed):
                cycle = flat % self.ii
                if cycle in occupied_cycles.get(src.pe, set()):
                    problems.append(
                        f"dependency {edge.src}->{edge.dst}: output register of PE "
                        f"{src.pe} overwritten at kernel cycle {cycle}"
                    )
                    break
        return problems

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Self-contained plain-data form: DFG, fabric spec and placements."""
        return {
            "format": "satmapit-mapping/1",
            "ii": self.ii,
            "dfg": self.dfg.to_dict(),
            "cgra": self.cgra.to_spec(),
            "placements": [
                {
                    "node": placement.node_id,
                    "pe": placement.pe,
                    "cycle": placement.cycle,
                    "iteration": placement.iteration,
                }
                for placement in sorted(
                    self.placements.values(), key=lambda p: p.node_id
                )
            ],
            "registers": {str(node): reg for node, reg in self.registers.items()},
            "register_copies": {
                str(node): list(regs) for node, regs in self.register_copies.items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to JSON (archive a mapping without re-solving)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Mapping":
        """Rebuild a mapping (with its DFG and fabric) from :meth:`to_dict`."""
        dfg = DFG.from_dict(data["dfg"])
        cgra = CGRA.from_spec(data["cgra"])
        mapping = cls(dfg=dfg, cgra=cgra, ii=int(data["ii"]))
        for entry in data.get("placements", ()):
            mapping.place(
                entry["node"], entry["pe"], entry["cycle"],
                entry.get("iteration", 0),
            )
        mapping.registers = {
            int(node): int(reg) for node, reg in data.get("registers", {}).items()
        }
        mapping.register_copies = {
            int(node): [int(reg) for reg in regs]
            for node, regs in data.get("register_copies", {}).items()
        }
        return mapping

    @classmethod
    def from_json(cls, text: str) -> "Mapping":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"Mapping(dfg={self.dfg.name!r}, cgra={self.cgra.name!r}, ii={self.ii}, "
            f"placed={len(self.placements)}/{self.dfg.num_nodes})"
        )
