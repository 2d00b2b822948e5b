"""Data-flow graph data structure.

Nodes model CGRA instructions; every node has an :class:`Opcode`, an optional
constant operand and a latency (one cycle for every ALU-class operation on the
target CGRA, matching the paper's architecture model).  Edges model data
dependencies; an edge with ``distance > 0`` is a loop-carried (back) edge whose
value is produced ``distance`` iterations before it is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Iterable, Iterator

from repro.dfg.analysis import forward_topological_order
from repro.exceptions import DFGError


class OpClass(str, Enum):
    """Functional-unit classes an opcode may require on a PE.

    The CGRA layer describes each processing element by the set of classes it
    implements; the mapper only places a node on a PE whose capability set
    contains the node's class.  ``ALU`` covers the single-cycle integer
    operations every PE provides on the paper's fabric; ``MUL``, ``DIV`` and
    ``MEM`` mark the expensive units that heterogeneous fabrics instantiate
    only on some PEs.
    """

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    MEM = "mem"


class Opcode(str, Enum):
    """Instruction set of the target CGRA's processing elements."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    LT = "lt"
    GT = "gt"
    EQ = "eq"
    SELECT = "select"
    LOAD = "load"
    STORE = "store"
    CONST = "const"
    PHI = "phi"
    ROUTE = "route"

    @property
    def is_memory(self) -> bool:
        """Whether the operation accesses the data memory."""
        return self in (Opcode.LOAD, Opcode.STORE)

    @property
    def op_class(self) -> OpClass:
        """The functional-unit class a PE must implement to execute this op."""
        if self.is_memory:
            return OpClass.MEM
        if self is Opcode.MUL:
            return OpClass.MUL
        if self is Opcode.DIV:
            return OpClass.DIV
        return OpClass.ALU

    @property
    def is_commutative(self) -> bool:
        """Whether operand order does not matter."""
        return self in (Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.EQ)


@dataclass(frozen=True)
class DFGNode:
    """A single instruction in the data-flow graph."""

    node_id: int
    opcode: Opcode = Opcode.ADD
    name: str = ""
    constant: int | None = None
    latency: int = 1

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise DFGError(f"node id must be non-negative, got {self.node_id}")
        if self.latency < 1:
            raise DFGError(f"latency must be >= 1, got {self.latency}")

    @property
    def label(self) -> str:
        """Human-readable label used by visualisation and DOT export."""
        if self.name:
            return f"{self.node_id}:{self.name}"
        return f"{self.node_id}:{self.opcode.value}"


@dataclass(frozen=True)
class DFGEdge:
    """A data dependency between two instructions.

    ``distance`` counts loop iterations between producer and consumer: zero
    for an intra-iteration dependency, one or more for loop-carried
    dependencies (back edges).
    """

    src: int
    dst: int
    distance: int = 0
    operand_index: int = 0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise DFGError(f"edge distance must be non-negative, got {self.distance}")

    @property
    def is_back_edge(self) -> bool:
        return self.distance > 0


@dataclass
class DFG:
    """A loop-body data-flow graph.

    The class wraps plain dictionaries with per-node edge lists; the graph
    algorithms the mapper needs live in :mod:`repro.dfg.analysis`.
    Conversion to networkx is available through :meth:`to_networkx` for
    ad-hoc analysis and drawing.
    """

    name: str = "dfg"
    _nodes: dict[int, DFGNode] = field(default_factory=dict)
    _edges: list[DFGEdge] = field(default_factory=list)
    #: Per-node incoming / outgoing edges in insertion order, kept by
    #: :meth:`add_edge`.  Derived from ``_edges``, so they take no part in
    #: equality, ``repr`` or :meth:`to_dict` (cache keys do not see them).
    _incoming: dict[int, list[DFGEdge]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _outgoing: dict[int, list[DFGEdge]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for edge in self._edges:
            self._index_edge(edge)

    def _index_edge(self, edge: DFGEdge) -> None:
        self._outgoing.setdefault(edge.src, []).append(edge)
        self._incoming.setdefault(edge.dst, []).append(edge)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: int | None = None,
        opcode: Opcode | str = Opcode.ADD,
        name: str = "",
        constant: int | None = None,
        latency: int = 1,
    ) -> DFGNode:
        """Create a node and add it to the graph, returning it."""
        if node_id is None:
            node_id = max(self._nodes, default=-1) + 1
        if node_id in self._nodes:
            raise DFGError(f"node {node_id} already exists in DFG {self.name!r}")
        node = DFGNode(node_id, Opcode(opcode), name, constant, latency)
        self._nodes[node_id] = node
        return node

    def add_edge(
        self, src: int, dst: int, distance: int = 0, operand_index: int = 0
    ) -> DFGEdge:
        """Create a dependency edge between two existing nodes."""
        if src not in self._nodes:
            raise DFGError(f"source node {src} not in DFG {self.name!r}")
        if dst not in self._nodes:
            raise DFGError(f"destination node {dst} not in DFG {self.name!r}")
        edge = DFGEdge(src, dst, distance, operand_index)
        self._edges.append(edge)
        self._index_edge(edge)
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[DFGNode]:
        """All nodes, ordered by node id."""
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    @property
    def edges(self) -> list[DFGEdge]:
        return list(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> DFGNode:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise DFGError(f"node {node_id} not in DFG {self.name!r}") from exc

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def successors(self, node_id: int) -> list[DFGEdge]:
        """Outgoing edges of ``node_id``, in insertion order."""
        return list(self._outgoing.get(node_id, ()))

    def predecessors(self, node_id: int) -> list[DFGEdge]:
        """Incoming edges of ``node_id``, in insertion order."""
        return list(self._incoming.get(node_id, ()))

    def forward_edges(self) -> list[DFGEdge]:
        """Edges with distance zero (intra-iteration dependencies)."""
        return [edge for edge in self._edges if edge.distance == 0]

    def back_edges(self) -> list[DFGEdge]:
        """Edges with positive distance (loop-carried dependencies)."""
        return [edge for edge in self._edges if edge.distance > 0]

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"DFG(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"back_edges={len(self.back_edges())})"
        )

    # ------------------------------------------------------------------
    # Validation and conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants, raising :class:`DFGError` on failure.

        The forward-edge subgraph must be acyclic (cycles must be broken by
        back edges with positive distance) and every edge endpoint must exist.
        """
        for edge in self._edges:
            if edge.src not in self._nodes or edge.dst not in self._nodes:
                raise DFGError(f"edge {edge} references a missing node")
        forward_topological_order(self)

    def to_networkx(self) -> "networkx.MultiDiGraph":
        """Convert to a networkx multigraph (edges keep their distance).

        The only use of networkx in the package, imported on call; it is
        the optional ``networkx`` extra.
        """
        try:
            import networkx
        except ImportError as exc:
            raise ImportError(
                "DFG.to_networkx needs networkx, the optional extra: "
                "pip install 'satmapit-repro[networkx]'"
            ) from exc

        graph = networkx.MultiDiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(node.node_id, opcode=node.opcode.value, label=node.label)
        for edge in self._edges:
            graph.add_edge(edge.src, edge.dst, distance=edge.distance)
        return graph

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-serialisable) of the graph."""
        return {
            "name": self.name,
            "nodes": [
                {
                    "id": node.node_id,
                    "opcode": node.opcode.value,
                    "name": node.name,
                    "constant": node.constant,
                    "latency": node.latency,
                }
                for node in self.nodes
            ],
            "edges": [
                {
                    "src": edge.src,
                    "dst": edge.dst,
                    "distance": edge.distance,
                    "operand_index": edge.operand_index,
                }
                for edge in self._edges
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DFG":
        """Rebuild a graph from :meth:`to_dict` output."""
        dfg = cls(name=data.get("name", "dfg"))
        for entry in data.get("nodes", ()):
            dfg.add_node(
                entry["id"],
                Opcode(entry["opcode"]),
                entry.get("name", ""),
                entry.get("constant"),
                entry.get("latency", 1),
            )
        for entry in data.get("edges", ()):
            dfg.add_edge(
                entry["src"],
                entry["dst"],
                entry.get("distance", 0),
                entry.get("operand_index", 0),
            )
        dfg.validate()
        return dfg

    def copy(self, name: str | None = None) -> "DFG":
        """Return a structural copy of the graph."""
        clone = DFG(name=name or self.name)
        for node in self.nodes:
            clone.add_node(node.node_id, node.opcode, node.name, node.constant, node.latency)
        for edge in self._edges:
            clone.add_edge(edge.src, edge.dst, edge.distance, edge.operand_index)
        return clone

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        name: str,
        num_nodes: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, int]],
        opcodes: dict[int, Opcode | str] | None = None,
    ) -> "DFG":
        """Build a DFG from a node count and an edge list.

        Each edge is ``(src, dst)`` or ``(src, dst, distance)``.  Node ids run
        from 0 to ``num_nodes - 1``; unspecified opcodes default to ``ADD``.
        """
        dfg = cls(name=name)
        opcodes = opcodes or {}
        for node_id in range(num_nodes):
            dfg.add_node(node_id, opcodes.get(node_id, Opcode.ADD))
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge  # type: ignore[misc]
                distance = 0
            else:
                src, dst, distance = edge  # type: ignore[misc]
            dfg.add_edge(src, dst, distance)
        dfg.validate()
        return dfg


def paper_running_example() -> DFG:
    """The 11-node running example of the paper (Figure 2a).

    The figure shows nodes 1–11 with forward dependencies chosen so that the
    ASAP/ALAP/mobility tables of Figure 4 are reproduced exactly, and a
    loop-carried dependency from node 9 back to node 1.  Node ids here match
    the paper's numbering (1-based).
    """
    dfg = DFG(name="running_example")
    for node_id in range(1, 12):
        dfg.add_node(node_id, Opcode.ADD, name=f"n{node_id}")
    # Forward edges reproducing Figure 4's ASAP/ALAP levels:
    #   ASAP levels: 0:{1,2,3,4}  1:{5,7,10}  2:{6,11}  3:{8}  4:{9}
    #   ALAP levels: 0:{3}  1:{4,5}  2:{1,6,7}  3:{2,8,10}  4:{9,11}
    dfg.add_edge(3, 5)
    dfg.add_edge(4, 7)
    dfg.add_edge(1, 10)
    dfg.add_edge(5, 6)
    dfg.add_edge(10, 11)
    dfg.add_edge(7, 8)
    dfg.add_edge(6, 8)
    dfg.add_edge(8, 9)
    dfg.add_edge(2, 9)
    # Loop-carried dependency closing the recurrence (node 9 feeds node 2 of
    # the next iteration).
    dfg.add_edge(9, 2, distance=1)
    dfg.validate()
    return dfg
