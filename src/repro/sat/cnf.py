"""CNF formula container and DIMACS serialisation.

Variables are positive integers starting at 1; a literal is a non-zero integer
whose sign encodes polarity (DIMACS convention).  The :class:`CNF` class keeps
track of the number of variables allocated so far, supports allocating fresh
auxiliary variables (needed by the sequential/commander cardinality
encodings), and can round-trip to the DIMACS CNF text format.

Batches of clauses travel between the encoder, this container and the
solvers in one flat form: the literals of all clauses back to back in one
``array('i')`` plus one length per clause (:func:`flatten`,
:func:`clause_slices`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from typing import TextIO

Clause = tuple[int, ...]


class CNF:
    """A formula in conjunctive normal form.

    The container deliberately stays close to the DIMACS data model so that it
    can be handed to any SAT solver: a number of variables and a list of
    clauses, each clause a tuple of non-zero integer literals.
    """

    def __init__(
        self,
        num_vars: int = 0,
        clauses: Iterable[Sequence[int]] | None = None,
        dedup: bool = False,
    ) -> None:
        """``dedup=True`` drops exact duplicate clauses at ingest (the count
        is kept in :attr:`num_duplicates_dropped`); mechanically generated
        formulas routinely contain them and they only slow propagation."""
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        self._num_vars = num_vars
        self._clauses: list[Clause] = []
        self._seen: set[Clause] | None = set() if dedup else None
        self._duplicates_dropped = 0
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables allocated in the formula."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses currently in the formula."""
        return len(self._clauses)

    @property
    def clauses(self) -> list[Clause]:
        """The clause list (shared reference, do not mutate)."""
        return self._clauses

    @property
    def num_duplicates_dropped(self) -> int:
        """Exact duplicate clauses dropped at ingest (``dedup=True`` only)."""
        return self._duplicates_dropped

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables and return them in order."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.new_var() for _ in range(count)]

    def ensure_var(self, var: int) -> None:
        """Grow the variable count so that ``var`` is a valid variable."""
        if var <= 0:
            raise ValueError(f"variables must be positive, got {var}")
        if var > self._num_vars:
            self._num_vars = var

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause given as a sequence of non-zero literals.

        Duplicate literals are removed.  A clause containing both a literal
        and its negation is a tautology and is silently dropped.  An empty
        clause is accepted (it makes the formula trivially unsatisfiable).
        """
        seen: set[int] = set()
        out: list[int] = []
        tautology = False
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            self.ensure_var(abs(lit))
            if -lit in seen:
                tautology = True
                continue
            if lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if tautology:
            return
        if self._seen is not None:
            key = tuple(sorted(out))
            if key in self._seen:
                self._duplicates_dropped += 1
                return
            self._seen.add(key)
        self._clauses.append(tuple(out))

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Add a flat batch of clauses (see :func:`clause_slices`).

        ``guard`` and ``trusted`` are part of the shared bulk-ingestion
        interface (see :meth:`repro.sat.backend.CDCLBackend.add_clauses`); the CNF
        container's own validation is cheap and always runs.
        """
        for clause in clause_slices(literals, lengths):
            self.add_clause(clause)

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (variables are shared, not renamed)."""
        self.ensure_var(max(other.num_vars, 1)) if other.num_vars else None
        for clause in other.clauses:
            for lit in clause:
                self.ensure_var(abs(lit))
            if self._seen is not None:
                key = tuple(sorted(clause))
                if key in self._seen:
                    self._duplicates_dropped += 1
                    continue
                self._seen.add(key)
            self._clauses.append(clause)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __repr__(self) -> str:
        return f"CNF(num_vars={self._num_vars}, num_clauses={len(self._clauses)})"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Return ``True`` iff ``assignment`` satisfies every clause.

        ``assignment`` maps variables to booleans; unassigned variables make a
        clause undecidable and count as unsatisfied.
        """
        for clause in self._clauses:
            if not clause_satisfied(clause, assignment):
                return False
        return True

    # ------------------------------------------------------------------
    # DIMACS I/O
    # ------------------------------------------------------------------
    def to_dimacs(self) -> str:
        """Serialise the formula to a DIMACS CNF string."""
        lines = [f"p cnf {self._num_vars} {len(self._clauses)}"]
        for clause in self._clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def write_dimacs(self, stream: TextIO) -> None:
        """Write the formula in DIMACS format to a text stream."""
        stream.write(self.to_dimacs())

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse a DIMACS CNF string into a :class:`CNF`."""
        num_vars = 0
        declared_clauses: int | None = None
        cnf = cls()
        pending: list[int] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c") or line.startswith("%"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed DIMACS problem line: {line!r}")
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            cnf.add_clause(pending)
        if num_vars:
            cnf.ensure_var(num_vars)
        if declared_clauses is not None and declared_clauses != cnf.num_clauses:
            # Tautologies are dropped on load, so fewer clauses than declared
            # is acceptable; more clauses indicates a malformed file.
            if cnf.num_clauses > declared_clauses:
                raise ValueError(
                    f"DIMACS header declares {declared_clauses} clauses, "
                    f"found {cnf.num_clauses}"
                )
        return cnf

    @classmethod
    def read_dimacs(cls, stream: TextIO) -> "CNF":
        """Read a DIMACS CNF formula from a text stream."""
        return cls.from_dimacs(stream.read())


def flatten(clauses: Iterable[Sequence[int]]) -> tuple[array, array]:
    """``clauses`` as the flat ``(literals, lengths)`` pair of ``add_clauses``.

    Both clause sinks, :class:`CNF` and the solver
    (:class:`~repro.sat.backend.CDCLBackend`), ingest batches in this one
    form: the literals of all clauses back to back in one ``array('i')``,
    and one length per clause in a second.
    """
    literals = array("i")
    lengths = array("i")
    for clause in clauses:
        literals.extend(clause)
        lengths.append(len(clause))
    return literals, lengths


def clause_slices(
    literals: Sequence[int], lengths: Sequence[int]
) -> Iterator[Sequence[int]]:
    """Iterate the clauses of a flat batch, one slice of ``literals`` each.

    Raises :class:`ValueError` before yielding anything when the lengths are
    negative or do not add up to the literal count.
    """
    if sum(lengths) != len(literals) or (len(lengths) and min(lengths) < 0):
        raise ValueError("clause lengths do not match the literal buffer")
    return _slices(literals, lengths)


def _slices(
    literals: Sequence[int], lengths: Sequence[int]
) -> Iterator[Sequence[int]]:
    start = 0
    for length in lengths:
        end = start + length
        yield literals[start:end]
        start = end


def clause_satisfied(clause: Sequence[int], assignment: dict[int, bool]) -> bool:
    """Return ``True`` iff ``clause`` is satisfied by ``assignment``."""
    for lit in clause:
        value = assignment.get(abs(lit))
        if value is None:
            continue
        if value == (lit > 0):
            return True
    return False
