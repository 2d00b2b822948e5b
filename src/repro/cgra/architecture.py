"""CGRA architecture description.

The :class:`CGRA` class models the paper's target fabric — an ``R x C`` grid
of processing elements with a near-neighbour interconnect — extended with a
first-class *capability* model for heterogeneous arrays: each PE belongs to a
:class:`~repro.cgra.capabilities.PEClass` that fixes which op classes it
implements (ALU / MUL / DIV / MEM) and how many local registers it has.  An
empty class table reproduces the paper's homogeneous mesh of identical PEs.

PEs are identified both by a linear index (row-major, which is what the SAT
encoding uses as the ``p`` coordinate of a literal) and by their
``(row, col)`` position.  Fabrics can be built programmatically, through the
named presets in :mod:`repro.cgra.presets`, or declaratively from a JSON/dict
spec via :meth:`CGRA.from_spec`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from repro.cgra.capabilities import (
    ALL_OP_CLASSES,
    DEFAULT_CLASS_NAME,
    PEClass,
)
from repro.cgra.topology import (
    Position,
    Topology,
    hop_distance,
    neighbourhood,
)
from repro.dfg.graph import OpClass, Opcode
from repro.exceptions import ArchitectureError


@dataclass(frozen=True)
class PE:
    """A single processing element."""

    index: int
    row: int
    col: int
    num_registers: int
    capabilities: frozenset[OpClass] = ALL_OP_CLASSES
    pe_class: str = DEFAULT_CLASS_NAME

    @property
    def position(self) -> Position:
        return (self.row, self.col)

    @property
    def name(self) -> str:
        return f"PE[{self.row},{self.col}]"

    def supports(self, opcode: Opcode | str) -> bool:
        """Whether this PE can execute ``opcode``."""
        return Opcode(opcode).op_class in self.capabilities

    def supports_class(self, op_class: OpClass | str) -> bool:
        """Whether this PE implements the functional-unit class."""
        return OpClass(op_class) in self.capabilities


@dataclass(frozen=True)
class CGRA:
    """A coarse-grain reconfigurable array.

    Parameters mirror the experimental setup of the paper: meshes from 2x2 to
    5x5, four local registers per PE and a 4-nearest-neighbour interconnect.
    ``pe_classes`` and ``class_map`` describe heterogeneous fabrics: the
    former lists the available PE kinds, the latter assigns one class name to
    every PE in row-major order.  Leaving both empty models the homogeneous
    array of identical full-capability PEs.
    """

    rows: int = 4
    cols: int = 4
    registers_per_pe: int = 4
    topology: Topology = Topology.MESH
    pe_classes: tuple[PEClass, ...] = ()
    class_map: tuple[str, ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ArchitectureError(
                f"CGRA must have at least one row and column, got {self.rows}x{self.cols}"
            )
        if self.registers_per_pe < 1:
            raise ArchitectureError(
                f"each PE needs at least one register, got {self.registers_per_pe}"
            )
        object.__setattr__(self, "topology", Topology(self.topology))
        object.__setattr__(
            self, "pe_classes", tuple(self.pe_classes)
        )
        object.__setattr__(self, "class_map", tuple(self.class_map))
        names = [pe_class.name for pe_class in self.pe_classes]
        if len(set(names)) != len(names):
            raise ArchitectureError(f"duplicate PE class names: {names}")
        if self.class_map:
            if len(self.class_map) != self.rows * self.cols:
                raise ArchitectureError(
                    f"class_map has {len(self.class_map)} entries, expected one "
                    f"per PE ({self.rows * self.cols})"
                )
            known = set(names) | {DEFAULT_CLASS_NAME}
            unknown = sorted(set(self.class_map) - known)
            if unknown:
                raise ArchitectureError(
                    f"class_map references undeclared PE classes: {unknown}"
                )
        if not self.name:
            object.__setattr__(self, "name", f"cgra_{self.rows}x{self.cols}")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Total number of processing elements."""
        return self.rows * self.cols

    @cached_property
    def _classes_by_name(self) -> dict[str, PEClass]:
        table = {pe_class.name: pe_class for pe_class in self.pe_classes}
        table.setdefault(DEFAULT_CLASS_NAME, PEClass(name=DEFAULT_CLASS_NAME))
        return table

    def pe_class_of(self, index: int) -> PEClass:
        """The :class:`PEClass` governing PE ``index``."""
        if not self.class_map:
            return self._classes_by_name[DEFAULT_CLASS_NAME]
        self._check_index(index)
        return self._classes_by_name[self.class_map[index]]

    @cached_property
    def pes(self) -> tuple[PE, ...]:
        """All PEs in row-major order."""
        result = []
        for row in range(self.rows):
            for col in range(self.cols):
                index = row * self.cols + col
                pe_class = self.pe_class_of(index)
                result.append(
                    PE(
                        index,
                        row,
                        col,
                        pe_class.registers or self.registers_per_pe,
                        pe_class.capabilities,
                        pe_class.name,
                    )
                )
        return tuple(result)

    def _check_index(self, index: int) -> None:
        """Raise :class:`ArchitectureError` unless ``index`` names a PE.

        Negative indices are rejected too: the per-PE tables are tuples,
        where ``table[-1]`` would silently answer for the last PE.
        """
        if not 0 <= index < self.num_pes:
            raise ArchitectureError(
                f"PE index {index} out of range for {self.rows}x{self.cols} CGRA"
            )

    def pe(self, index: int) -> PE:
        """Look up a PE by linear index."""
        self._check_index(index)
        return self.pes[index]

    def pe_index(self, position: Position) -> int:
        """Linear (row-major) index of the PE at ``position``."""
        row, col = position
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ArchitectureError(
                f"position {position} outside a {self.rows}x{self.cols} grid"
            )
        return row * self.cols + col

    def pe_position(self, index: int) -> Position:
        """Grid position of PE ``index``."""
        return (self.pe(index).row, self.pe(index).col)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @cached_property
    def is_homogeneous(self) -> bool:
        """Whether every PE has the same capabilities and register count."""
        signatures = {self._signature(pe) for pe in range(self.num_pes)}
        return len(signatures) <= 1

    def _signature(self, index: int) -> tuple[frozenset[OpClass], int]:
        """Capability signature deciding PE interchangeability."""
        pe = self.pe(index)
        return (pe.capabilities, pe.num_registers)

    @cached_property
    def _capable_pes(self) -> dict[OpClass, tuple[int, ...]]:
        table: dict[OpClass, list[int]] = {op_class: [] for op_class in OpClass}
        for pe in self.pes:
            for op_class in pe.capabilities:
                table[op_class].append(pe.index)
        return {op_class: tuple(indices) for op_class, indices in table.items()}

    def capable_pes(self, op_class: OpClass | str) -> tuple[int, ...]:
        """Indices of the PEs implementing ``op_class`` (ascending order)."""
        return self._capable_pes[OpClass(op_class)]

    @cached_property
    def _opcode_pes(self) -> dict[Opcode, tuple[int, ...]]:
        return {opcode: self.capable_pes(opcode.op_class) for opcode in Opcode}

    def pes_supporting(self, opcode: Opcode | str) -> tuple[int, ...]:
        """Indices of the PEs able to execute ``opcode`` (ascending order)."""
        try:
            return self._opcode_pes[opcode]
        except KeyError:
            return self._opcode_pes[Opcode(opcode)]

    def capability_summary(self) -> str:
        """Compact per-class PE counts, e.g. ``alu:16 mul:16 div:16 mem:12``."""
        return " ".join(
            f"{op_class.value}:{len(self.capable_pes(op_class))}"
            for op_class in OpClass
        )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    @cached_property
    def _neighbour_table(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, tuple[int, ...]] = {}
        for pe in self.pes:
            positions = neighbourhood(
                pe.position, self.rows, self.cols, self.topology, include_self=True
            )
            table[pe.index] = tuple(self.pe_index(pos) for pos in positions)
        return table

    @cached_property
    def neighbour_sets(self) -> tuple[frozenset[int], ...]:
        """Per-PE one-hop neighbourhood, the PE itself included, by index."""
        return tuple(
            frozenset(self._neighbour_table[pe]) for pe in range(self.num_pes)
        )

    @cached_property
    def hop_table(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs minimum hop counts: ``hop_table[a][b]`` (see :meth:`distance`)."""
        positions = [pe.position for pe in self.pes]
        return tuple(
            tuple(
                hop_distance(a, b, self.rows, self.cols, self.topology)
                for b in positions
            )
            for a in positions
        )

    @cached_property
    def affinity_table(self) -> tuple[tuple[int, ...], ...]:
        """Placement cost of consuming on PE ``b`` a value produced on PE ``a``.

        ``affinity_table[a][b]`` is 0 when ``b`` is ``a`` or one of its
        one-hop neighbours (the value is readable directly) and the hop
        count otherwise.  The heuristic mappers rank candidate PEs by its
        sum over a node's already-placed partners.
        """
        return tuple(
            tuple(0 if b in near else hops for b, hops in enumerate(row))
            for row, near in zip(self.hop_table, self.neighbour_sets)
        )

    def neighbours(self, index: int, include_self: bool = True) -> tuple[int, ...]:
        """PE indices that can receive a value from PE ``index`` in one hop."""
        self._check_index(index)
        result = self._neighbour_table[index]
        if include_self:
            return result
        return tuple(pe for pe in result if pe != index)

    def are_neighbours(self, a: int, b: int, include_self: bool = True) -> bool:
        """Whether PE ``b`` can consume a value produced on PE ``a``."""
        self._check_index(a)
        if a == b:
            return include_self
        return b in self.neighbour_sets[a]

    def distance(self, a: int, b: int) -> int:
        """Exact minimum hop count between two PEs on this topology.

        Manhattan on the mesh, wrap-around-aware Manhattan on the torus,
        Chebyshev on the 8-neighbour diagonal grid, and at most one hop on
        the idealised full crossbar.
        """
        self._check_index(a)
        self._check_index(b)
        return self.hop_table[a][b]

    # ------------------------------------------------------------------
    # Symmetries
    # ------------------------------------------------------------------
    @cached_property
    def symmetries(self) -> tuple[tuple[int, ...], ...]:
        """Capability-preserving grid automorphisms as PE-index permutations.

        The geometric candidates are the dihedral transforms of the grid
        (8 for a square, 4 for a rectangle) plus, on the torus, every
        wrap-around translation composed with them.  A candidate survives
        only if it maps each PE onto a PE with the same capability signature
        (capabilities and register count): a reflection that would land a
        memory node on an ALU-only PE is not a symmetry of a heterogeneous
        fabric.  Every permutation returned maps neighbours to neighbours
        and preserves capabilities, so applying it to a legal mapping yields
        another legal mapping.
        """
        rows, cols = self.rows, self.cols
        geometric = [lambda pos: pos,
                     lambda pos: (rows - 1 - pos[0], pos[1]),
                     lambda pos: (pos[0], cols - 1 - pos[1]),
                     lambda pos: (rows - 1 - pos[0], cols - 1 - pos[1])]
        if rows == cols:
            geometric.extend([
                lambda pos: (pos[1], pos[0]),
                lambda pos: (cols - 1 - pos[1], pos[0]),
                lambda pos: (pos[1], rows - 1 - pos[0]),
                lambda pos: (cols - 1 - pos[1], rows - 1 - pos[0]),
            ])
        transforms = list(geometric)
        if self.topology is Topology.TORUS:
            # Wrap-around links make every translation an automorphism too.
            transforms = [
                (lambda base, dr, dc: lambda pos: (
                    (base(pos)[0] + dr) % rows, (base(pos)[1] + dc) % cols
                ))(base, d_row, d_col)
                for base in geometric
                for d_row in range(rows)
                for d_col in range(cols)
            ]

        permutations: list[tuple[int, ...]] = []
        for transform in transforms:
            permutation = tuple(
                self.pe_index(transform(self.pe_position(index)))
                for index in range(self.num_pes)
            )
            if permutation in permutations:
                continue
            if all(
                self._signature(permutation[pe]) == self._signature(pe)
                for pe in range(self.num_pes)
            ):
                permutations.append(permutation)
        return tuple(permutations)

    def symmetry_fundamental_domain(self) -> tuple[int, ...]:
        """A minimal set of PEs intersecting every symmetry orbit.

        Restricting a single (anchor) node to these PEs is a sound
        symmetry-breaking constraint: any legal mapping can be transformed by
        a capability-preserving grid automorphism so that the anchor lands
        inside the domain.  On the full crossbar *any* permutation of
        same-signature PEs is an automorphism, so one representative per
        capability signature suffices.
        """
        if self.topology is Topology.FULL:
            seen: set[tuple[frozenset[OpClass], int]] = set()
            representatives: list[int] = []
            for pe in range(self.num_pes):
                signature = self._signature(pe)
                if signature not in seen:
                    seen.add(signature)
                    representatives.append(pe)
            return tuple(representatives)
        canonical: set[int] = set()
        for pe in range(self.num_pes):
            canonical.add(min(permutation[pe] for permutation in self.symmetries))
        return tuple(sorted(canonical))

    # ------------------------------------------------------------------
    # Declarative specs
    # ------------------------------------------------------------------
    def to_spec(self) -> dict:
        """JSON-serialisable description round-tripping through :meth:`from_spec`."""
        spec: dict = {
            "name": self.name,
            "rows": self.rows,
            "cols": self.cols,
            "registers_per_pe": self.registers_per_pe,
            "topology": self.topology.value,
        }
        if self.pe_classes:
            spec["pe_classes"] = {
                pe_class.name: pe_class.to_spec() for pe_class in self.pe_classes
            }
        if self.class_map:
            spec["assignment"] = [
                list(self.class_map[row * self.cols:(row + 1) * self.cols])
                for row in range(self.rows)
            ]
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "CGRA":
        """Build a fabric from a declarative dict (see ``README.md``).

        Recognised keys: ``rows``, ``cols``, ``registers_per_pe``,
        ``topology``, ``name``, ``pe_classes`` (name -> {``capabilities``,
        ``registers``}), ``assignment`` (rows x cols grid of class names, or
        a flat row-major list) and ``default_class`` (class used where the
        assignment is omitted).
        """
        if not isinstance(spec, dict):
            raise ArchitectureError(
                f"architecture spec must be an object, got {type(spec).__name__}"
            )
        rows = int(spec.get("rows", 4))
        cols = int(spec.get("cols", 4))
        classes = tuple(
            PEClass.from_spec(name, entry)
            for name, entry in spec.get("pe_classes", {}).items()
        )
        class_names = {pe_class.name for pe_class in classes}
        default_class = spec.get("default_class")
        if default_class is not None and default_class not in class_names:
            raise ArchitectureError(
                f"default_class {default_class!r} is not declared in pe_classes"
            )
        assignment = spec.get("assignment")
        class_map: tuple[str, ...] = ()
        # An empty assignment must not silently bypass the class table (it
        # would fall back to full-capability defaults for every PE).
        if assignment:
            if assignment and isinstance(assignment[0], (list, tuple)):
                if len(assignment) != rows or any(len(r) != cols for r in assignment):
                    raise ArchitectureError(
                        f"assignment grid must be {rows}x{cols} class names"
                    )
                flat = [name for row in assignment for name in row]
            else:
                flat = list(assignment)
            class_map = tuple(str(name) for name in flat)
        elif default_class is not None:
            class_map = (default_class,) * (rows * cols)
        elif classes:
            raise ArchitectureError(
                "spec declares pe_classes but neither an assignment grid nor "
                "a default_class"
            )
        return cls(
            rows=rows,
            cols=cols,
            registers_per_pe=int(spec.get("registers_per_pe", 4)),
            topology=Topology(spec.get("topology", Topology.MESH)),
            pe_classes=classes,
            class_map=class_map,
            name=spec.get("name", ""),
        )

    @classmethod
    def from_spec_file(cls, path: str) -> "CGRA":
        """Load a fabric from a JSON architecture spec file."""
        try:
            with open(path, encoding="utf-8") as stream:
                spec = json.load(stream)
        except OSError as exc:
            raise ArchitectureError(
                f"cannot read architecture spec {path!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ArchitectureError(
                f"architecture spec {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_spec(spec)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-paragraph human readable description."""
        base = (
            f"{self.rows}x{self.cols} CGRA ({self.num_pes} PEs), "
            f"{self.registers_per_pe} registers per PE, "
            f"{self.topology.value} interconnect"
        )
        if self.is_homogeneous:
            return base
        counts = Counter(self.class_map)
        mix = ", ".join(f"{count}x{name}" for name, count in sorted(counts.items()))
        return f"{base}, heterogeneous ({mix}; {self.capability_summary()})"

    def __str__(self) -> str:
        return self.describe()

    @classmethod
    def square(cls, size: int, registers_per_pe: int = 4,
               topology: Topology | str = Topology.MESH) -> "CGRA":
        """Build the square meshes used throughout the paper (2x2 … 5x5)."""
        return cls(rows=size, cols=size, registers_per_pe=registers_per_pe,
                   topology=Topology(topology))

    @classmethod
    def patterned(
        cls,
        rows: int,
        cols: int,
        classes: tuple[PEClass, ...],
        assign,
        registers_per_pe: int = 4,
        topology: Topology | str = Topology.MESH,
        name: str = "",
    ) -> "CGRA":
        """Build a heterogeneous fabric from an ``(row, col) -> class name`` rule."""
        class_map = tuple(
            assign(row, col) for row in range(rows) for col in range(cols)
        )
        return cls(
            rows=rows,
            cols=cols,
            registers_per_pe=registers_per_pe,
            topology=Topology(topology),
            pe_classes=classes,
            class_map=class_map,
            name=name,
        )
