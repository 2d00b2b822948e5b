"""Cycle-accurate execution of a mapping on the modelled CGRA.

The simulator replays the steady-state kernel (plus its natural prologue and
epilogue) cycle by cycle.  Each PE owns an output register (overwritten by
every instruction the PE executes) and a local register file; operand reads
happen at the beginning of a cycle, writes at the end (single-cycle latency,
matching the mapper's timing model).

For every executed node instance the simulator checks that the operand it can
physically reach — the producer PE's output register for a neighbour
transfer, the producer PE's register file for a same-PE transfer — holds
exactly the value the golden-model interpreter says the producer produced in
the right iteration.  Any stale or clobbered value is reported as an error, so
a mapping that passes simulation is correct end to end: placement, timing,
output-register survival and register allocation all agree.

On heterogeneous fabrics the simulator doubles as the end-to-end capability
legality oracle: executing an instruction on a PE that does not implement its
functional class raises :class:`SimulationError` immediately — a mapping that
runs to completion is therefore placement-, timing-, transfer- *and*
capability-correct.

Memory semantics (LOAD/STORE contents) stay in the golden model: the machine
checks *dataflow delivery*, the reference checks *computation*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mapping import Mapping
from repro.core.regalloc import RegisterAllocation
from repro.exceptions import ReproError, SimulationError
from repro.simulator.reference import ReferenceInterpreter


@dataclass
class SimulationResult:
    """Outcome of a cycle-accurate simulation run."""

    success: bool
    iterations: int
    cycles_executed: int
    checked_transfers: int
    errors: list[str] = field(default_factory=list)
    #: Values produced per (node, iteration), as computed by the golden model.
    values: dict[tuple[int, int], int] = field(default_factory=dict)

    def __repr__(self) -> str:
        status = "ok" if self.success else f"{len(self.errors)} errors"
        return (
            f"SimulationResult({status}, iterations={self.iterations}, "
            f"cycles={self.cycles_executed}, transfers={self.checked_transfers})"
        )


@dataclass
class _PEState:
    """Architectural state of one processing element during simulation."""

    output_register: tuple[int, int, int] | None = None  # (node, iteration, value)
    register_file: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    #: Fallback store used when no register allocation is supplied: one slot
    #: per producing node (capacity is then *not* checked here).
    virtual_registers: dict[int, tuple[int, int, int]] = field(default_factory=dict)


class CGRASimulator:
    """Executes a mapping and validates every data transfer."""

    def __init__(
        self,
        mapping: Mapping,
        register_allocation: RegisterAllocation | None = None,
        initial_values: dict[int, int] | None = None,
        memory: dict[int, int] | None = None,
        neighbour_register_file_access: bool = True,
    ) -> None:
        if not mapping.placements:
            raise SimulationError("cannot simulate an empty mapping")
        self.mapping = mapping
        self.register_allocation = register_allocation
        #: Transfer model (must match the mapper's): when True a consumer on a
        #: neighbouring PE reads the producer's register file (the default,
        #: matching ``MapperConfig.neighbour_register_file_access``); when
        #: False it reads the producer's single output register, which other
        #: instructions on that PE overwrite.
        self.neighbour_register_file_access = neighbour_register_file_access
        self.reference = ReferenceInterpreter(
            dfg=mapping.dfg,
            initial_values=initial_values or {},
            memory=memory or {},
        )

    # ------------------------------------------------------------------
    def run(self, num_iterations: int = 4) -> SimulationResult:
        """Simulate ``num_iterations`` loop iterations through the kernel."""
        if num_iterations < 1:
            raise SimulationError(f"num_iterations must be >= 1, got {num_iterations}")
        mapping = self.mapping
        dfg = mapping.dfg
        ii = mapping.ii
        history = self.reference.run(num_iterations)

        # Build the execution timeline: (absolute cycle, node, iteration, pe).
        # Executing an opcode on a PE lacking the functional unit is a
        # hardware impossibility, not a recoverable dataflow error — refuse
        # to run such a mapping at all.
        timeline: dict[int, list[tuple[int, int, int]]] = {}
        for node_id, placement in mapping.placements.items():
            node = dfg.node(node_id)
            pe_model = mapping.cgra.pe(placement.pe)
            if not pe_model.supports(node.opcode):
                raise SimulationError(
                    f"node {node_id} executes {node.opcode.value} on "
                    f"{pe_model.name}, which only implements "
                    f"{'/'.join(sorted(c.value for c in pe_model.capabilities))}"
                )
            start = placement.flat_time(ii)
            for k in range(num_iterations):
                cycle = start + k * ii
                timeline.setdefault(cycle, []).append((node_id, k, placement.pe))

        pes = {pe: _PEState() for pe in range(mapping.cgra.num_pes)}
        errors: list[str] = []
        checked = 0
        values: dict[tuple[int, int], int] = {}
        last_cycle = max(timeline) if timeline else 0

        for cycle in range(last_cycle + 1):
            events = timeline.get(cycle, [])
            # Detect structural double-booking (should be impossible for a
            # legal mapping, but the simulator is also used on hand-written
            # mappings in tests).
            used_pes: dict[int, int] = {}
            for node_id, _k, pe in events:
                if pe in used_pes:
                    errors.append(
                        f"cycle {cycle}: PE {pe} executes node {used_pes[pe]} and "
                        f"node {node_id} simultaneously"
                    )
                used_pes[pe] = node_id

            # Phase 1: operand reads (see state produced in earlier cycles).
            for node_id, k, pe in events:
                for edge in dfg.predecessors(node_id):
                    source_iteration = k - edge.distance
                    if source_iteration < 0:
                        continue  # fed by the prologue, outside the kernel
                    if edge.src not in mapping.placements:
                        continue
                    expected = history[source_iteration][edge.src]
                    checked += 1
                    error = self._check_transfer(
                        pes, mapping, edge.src, source_iteration, expected,
                        node_id, k, pe, cycle,
                    )
                    if error:
                        errors.append(error)

            # Phase 2: writes (become visible from the next cycle on).
            for node_id, k, pe in events:
                value = history[k][node_id]
                values[(node_id, k)] = value
                state = pes[pe]
                state.output_register = (node_id, k, value)
                registers = self._registers_for(node_id)
                if registers:
                    register = registers[k % len(registers)]
                    state.register_file[register] = (node_id, k, value)
                else:
                    state.virtual_registers[node_id] = (node_id, k, value)

        return SimulationResult(
            success=not errors,
            iterations=num_iterations,
            cycles_executed=last_cycle + 1,
            checked_transfers=checked,
            errors=errors,
            values=values,
        )

    # ------------------------------------------------------------------
    def _registers_for(self, node_id: int) -> list[int]:
        if self.register_allocation is not None:
            return self.register_allocation.all_copies.get(node_id, [])
        # Archived mappings carry the per-copy assignment themselves, so a
        # deserialized mapping replays exactly without the allocation object.
        return self.mapping.register_copies.get(node_id, [])

    def _check_transfer(
        self,
        pes: dict[int, _PEState],
        mapping: Mapping,
        src: int,
        src_iteration: int,
        expected: int,
        dst: int,
        dst_iteration: int,
        dst_pe: int,
        cycle: int,
    ) -> str | None:
        """Verify that (src, src_iteration) is readable by dst at this cycle."""
        src_pe = mapping.placements[src].pe
        wanted = (src, src_iteration, expected)
        if src_pe != dst_pe and not mapping.cgra.are_neighbours(
            src_pe, dst_pe, include_self=False
        ):
            return (
                f"cycle {cycle}: node {dst} (iteration {dst_iteration}) on PE "
                f"{dst_pe} cannot reach producer node {src} on PE {src_pe}"
            )
        reads_register_file = (
            src_pe == dst_pe or self.neighbour_register_file_access
        )
        if reads_register_file:
            state = pes[src_pe]
            registers = self._registers_for(src)
            if registers:
                register = registers[src_iteration % len(registers)]
                held = state.register_file.get(register)
                location = f"register r{register} of PE {src_pe}"
            else:
                held = state.virtual_registers.get(src)
                location = f"register file of PE {src_pe}"
        else:
            held = pes[src_pe].output_register
            location = f"output register of PE {src_pe}"
        if held is None:
            return (
                f"cycle {cycle}: node {dst} (iteration {dst_iteration}) reads "
                f"{location} but it holds no value yet (expected node {src}, "
                f"iteration {src_iteration})"
            )
        if held[:2] != wanted[:2]:
            return (
                f"cycle {cycle}: node {dst} (iteration {dst_iteration}) reads "
                f"{location} and finds value of node {held[0]} iteration {held[1]}, "
                f"expected node {src} iteration {src_iteration}"
            )
        if held[2] != expected:
            return (
                f"cycle {cycle}: stale value for node {src} iteration "
                f"{src_iteration} in {location}: {held[2]} != {expected}"
            )
        return None


def replay_validated(
    mapping: Mapping,
    allocation: RegisterAllocation | None,
    *,
    enforce_output_register: bool = False,
    neighbour_register_file_access: bool = True,
) -> bool:
    """The legality oracle a mapping must pass before it is reported.

    Structural rules first (the ``violations()`` oracle the SAT path
    raises on), then two simulated iterations against the reference
    interpreter.  The simulation leg needs the register allocation: without
    one the machine keeps a single virtual register per producer, so any
    value living longer than one II self-overwrites — a lifetime register
    allocation handles fine — and the oracle would reject mappings the SAT
    mapper accepts.  Allocation-free mappings get the structural check only.
    """
    if mapping.violations(check_overwrite=enforce_output_register):
        return False
    if allocation is None:
        return True
    try:
        simulation = CGRASimulator(
            mapping,
            allocation,
            neighbour_register_file_access=neighbour_register_file_access,
        ).run(2)
    except ReproError:
        return False
    return simulation.success
