"""Golden-model interpreter for data-flow graphs.

Executes a DFG for a number of loop iterations, honouring loop-carried
dependencies (edges with ``distance > 0`` read the value produced that many
iterations earlier).  All arithmetic is 32-bit wrap-around, shifts are masked
to 5 bits and division by zero yields zero — simple, total semantics that the
cycle-accurate simulator reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfg.analysis import forward_topological_order
from repro.dfg.graph import DFG, Opcode
from repro.exceptions import SimulationError

_MASK32 = 0xFFFFFFFF


def _wrap(value: int) -> int:
    return value & _MASK32


def _to_signed(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def default_memory(address: int) -> int:
    """Deterministic pseudo-random memory contents used for LOAD nodes."""
    return _wrap((address & _MASK32) * 2654435761 + 12345)


@dataclass
class ReferenceInterpreter:
    """Iteration-by-iteration DFG interpreter (the golden model)."""

    dfg: DFG
    #: Initial values of PHI nodes (and of any node read through a back edge
    #: before it has ever executed).  Defaults to zero.
    initial_values: dict[int, int] = field(default_factory=dict)
    #: Memory contents for LOAD nodes, keyed by address; addresses not present
    #: fall back to :func:`default_memory`.
    memory: dict[int, int] = field(default_factory=dict)

    def run(self, num_iterations: int) -> list[dict[int, int]]:
        """Execute ``num_iterations`` iterations; returns per-iteration values."""
        if num_iterations < 0:
            raise SimulationError(f"num_iterations must be >= 0, got {num_iterations}")
        self.dfg.validate()
        order = forward_topological_order(self.dfg)
        history: list[dict[int, int]] = []
        store_state = dict(self.memory)
        for iteration in range(num_iterations):
            values: dict[int, int] = {}
            for node_id in order:
                values[node_id] = self._evaluate(node_id, iteration, values, history,
                                                 store_state)
            history.append(values)
        return history

    def value(self, history: list[dict[int, int]], node_id: int, iteration: int) -> int:
        """The value node ``node_id`` produced in ``iteration``."""
        if iteration < 0:
            return self.initial_values.get(node_id, 0)
        return history[iteration][node_id]

    # ------------------------------------------------------------------
    def _operands(
        self,
        node_id: int,
        iteration: int,
        values: dict[int, int],
        history: list[dict[int, int]],
    ) -> list[int]:
        edges = sorted(
            self.dfg.predecessors(node_id),
            key=lambda e: (e.operand_index, e.src),
        )
        operands: list[int] = []
        for edge in edges:
            if edge.distance == 0:
                operands.append(values[edge.src])
            else:
                source_iteration = iteration - edge.distance
                if source_iteration < 0:
                    operands.append(self.initial_values.get(edge.src, 0))
                else:
                    operands.append(history[source_iteration][edge.src])
        return operands

    def _evaluate(
        self,
        node_id: int,
        iteration: int,
        values: dict[int, int],
        history: list[dict[int, int]],
        store_state: dict[int, int],
    ) -> int:
        node = self.dfg.node(node_id)
        operands = self._operands(node_id, iteration, values, history)
        opcode = node.opcode

        if opcode is Opcode.CONST:
            if node.constant is not None:
                return _wrap(node.constant)
            # Named loop invariant: derive a stable value from the name.
            return _wrap(sum(ord(ch) for ch in node.name) * 2654435761 + 97)
        if opcode is Opcode.PHI:
            incoming = self.dfg.predecessors(node_id)
            min_distance = min((edge.distance for edge in incoming), default=1)
            if iteration < min_distance or not operands:
                # Before the first loop-carried value arrives the PHI holds
                # its initial value (set up by the prologue).
                return _wrap(self.initial_values.get(node_id, 0))
            return _wrap(operands[0])
        if opcode is Opcode.ROUTE:
            return _wrap(operands[0]) if operands else 0
        if opcode is Opcode.LOAD:
            address = operands[0] if operands else 0
            if address in store_state:
                return _wrap(store_state[address])
            return default_memory(address)
        if opcode is Opcode.STORE:
            address = operands[0] if operands else 0
            value = operands[1] if len(operands) > 1 else 0
            store_state[address] = _wrap(value)
            return _wrap(value)

        a = operands[0] if operands else 0
        b = operands[1] if len(operands) > 1 else 0
        if opcode is Opcode.ADD:
            return _wrap(a + b)
        if opcode is Opcode.SUB:
            return _wrap(a - b)
        if opcode is Opcode.MUL:
            return _wrap(a * b)
        if opcode is Opcode.DIV:
            return _wrap(a // b) if b else 0
        if opcode is Opcode.AND:
            return _wrap(a & b)
        if opcode is Opcode.OR:
            return _wrap(a | b)
        if opcode is Opcode.XOR:
            return _wrap(a ^ b)
        if opcode is Opcode.SHL:
            return _wrap(a << (b & 31))
        if opcode is Opcode.SHR:
            return _wrap(a >> (b & 31))
        if opcode is Opcode.LT:
            return 1 if _to_signed(a) < _to_signed(b) else 0
        if opcode is Opcode.GT:
            return 1 if _to_signed(a) > _to_signed(b) else 0
        if opcode is Opcode.EQ:
            return 1 if a == b else 0
        if opcode is Opcode.SELECT:
            condition = operands[0] if operands else 0
            if_true = operands[1] if len(operands) > 1 else 0
            if_false = operands[2] if len(operands) > 2 else 0
            return _wrap(if_true if condition else if_false)
        raise SimulationError(f"unsupported opcode {opcode!r} for node {node_id}")


def interpret_dfg(
    dfg: DFG,
    num_iterations: int,
    initial_values: dict[int, int] | None = None,
    memory: dict[int, int] | None = None,
) -> list[dict[int, int]]:
    """Convenience wrapper around :class:`ReferenceInterpreter`."""
    interpreter = ReferenceInterpreter(
        dfg=dfg,
        initial_values=initial_values or {},
        memory=memory or {},
    )
    return interpreter.run(num_iterations)
