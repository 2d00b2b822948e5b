"""Cardinality encodings used by the SAT-MapIt CNF construction.

The mapping formulation needs two cardinality shapes:

* *exactly-one* over the literal set of each DFG node (constraint C1), and
* *at-most-one* over each (PE, cycle) slot (constraint C2).

Three at-most-one encodings are provided.  ``pairwise`` is the textbook
quadratic encoding the paper describes; ``sequential`` (Sinz 2005) and
``commander`` (Klieber & Kwon 2007) trade auxiliary variables for far fewer
clauses and are what the production mapper uses for large slots.

Each encoding writes whole clause families as flat blocks (see
:func:`weave`) into any clause sink with the flat ``add_clauses`` of
:func:`repro.sat.cnf.flatten` — a :class:`~repro.sat.cnf.CNF`, a solver
backend or the mapping encoder's emitter.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from enum import Enum
from functools import partial


class AMOEncoding(str, Enum):
    """Available at-most-one encodings."""

    PAIRWISE = "pairwise"
    SEQUENTIAL = "sequential"
    COMMANDER = "commander"
    #: Pick per constraint group: pairwise up to ``AUTO_PAIRWISE_LIMIT``
    #: literals, sequential above.  On the CDCL core's implication lists a
    #: pairwise clause is a single-read implication with no auxiliary
    #: counter chain, which cuts unit-propagation volume several-fold; the
    #: quadratic clause count only overtakes that win on very wide groups.
    AUTO = "auto"


#: Group width where :data:`AMOEncoding.AUTO` switches from the quadratic
#: pairwise form to the sequential counter.  Chosen empirically on the
#: benchmark suite: pairwise still wins at ~176-literal groups (gsm on the
#: 4x4 mesh); the cap guards the very wide groups of large fabrics at high
#: slack where n^2 clause counts would dominate encode time and memory.
AUTO_PAIRWISE_LIMIT = 200

#: Emits the pairwise at-most-one over a literal list into a clause sink.
PairwiseEmitter = Callable[[list[int]], None]


def weave(
    columns: Sequence[array], guard: int | None = None
) -> tuple[array, array]:
    """Flatten a block of equal-width clauses given column by column.

    Clause ``i`` is ``columns[0][i], columns[1][i], ...`` followed by
    ``guard`` when one is given.  Returns the ``(literals, lengths)`` pair
    that every clause sink's ``add_clauses`` takes.
    """
    count = len(columns[0])
    width = len(columns) + (guard is not None)
    literals = array("i", (guard or 0,)) * (count * width)
    for index, column in enumerate(columns):
        literals[index::width] = column
    return literals, array("i", (width,)) * count


def pairwise_columns(
    literals: Sequence[int], dropped: dict[int, set[int]] | None = None
) -> tuple[array, array]:
    """The two literal columns of ``¬a ∨ ¬b`` over every pair of ``literals``.

    Pairs come in ``(i, j)`` order with ``i < j``, row by row, the way the
    textbook double loop emits them.  ``dropped`` maps a row ``i`` to the
    partners ``j`` whose pair is left out.
    """
    negated = array("i", [-lit for lit in literals])
    n = len(negated)
    firsts = array("i")
    seconds = array("i")
    for i in range(n - 1):
        row = negated[i + 1:]
        if dropped and i in dropped:
            gone = dropped[i]
            row = array("i", [negated[j] for j in range(i + 1, n) if j not in gone])
        firsts.extend(array("i", (negated[i],)) * len(row))
        seconds.extend(row)
    return firsts, seconds


def sequential_columns(
    literals: Sequence[int], regs: Sequence[int]
) -> tuple[array, array]:
    """The two literal columns of the Sinz chain over ``literals``.

    ``regs`` are the ``n - 1`` register variables.  Clause order:
    ``¬x0 ∨ s0``, ``¬x(n-1) ∨ ¬s(n-2)``, then for ``i = 1 .. n-2`` the
    triple ``¬xi ∨ si``, ``¬s(i-1) ∨ si``, ``¬xi ∨ ¬s(i-1)``.
    """
    n = len(literals)
    negated = array("i", [-lit for lit in literals])
    regs = array("i", regs)
    negated_regs = array("i", [-reg for reg in regs])
    inner = negated[1:n - 1]
    previous = negated_regs[:n - 2]
    current = regs[1:n - 1]
    firsts = array("i", (0,)) * (3 * (n - 2))
    seconds = array("i", (0,)) * (3 * (n - 2))
    firsts[0::3] = inner
    firsts[1::3] = previous
    firsts[2::3] = inner
    seconds[0::3] = current
    seconds[1::3] = current
    seconds[2::3] = previous
    return (array("i", (negated[0], negated[n - 1])) + firsts,
            array("i", (regs[0], negated_regs[n - 2])) + seconds)


def at_least_one(sink, literals: Sequence[int]) -> None:
    """Add a clause requiring at least one of ``literals`` to be true.

    An empty literal list adds the empty clause, making the formula UNSAT,
    which is the correct semantics (no way to satisfy "at least one of
    nothing").
    """
    clause = array("i", literals)
    sink.add_clauses(clause, array("i", (len(clause),)))


def at_most_one(
    sink,
    literals: Sequence[int],
    encoding: AMOEncoding | str = AMOEncoding.SEQUENTIAL,
    pairwise: PairwiseEmitter | None = None,
) -> None:
    """Constrain ``literals`` so that at most one of them is true.

    ``sink`` is any clause sink (``new_var``/``new_vars`` plus the flat
    ``add_clauses``).  ``pairwise`` emits each pairwise block (the whole
    group, or a commander sub-group); by default the pairs go straight into
    ``sink``.
    """
    encoding = AMOEncoding(encoding)
    lits = list(literals)
    if len(lits) <= 1:
        return
    if pairwise is None:
        pairwise = partial(_amo_pairwise, sink)
    if encoding is AMOEncoding.AUTO:
        encoding = (
            AMOEncoding.PAIRWISE
            if len(lits) <= AUTO_PAIRWISE_LIMIT
            else AMOEncoding.SEQUENTIAL
        )
    if encoding is AMOEncoding.PAIRWISE or len(lits) <= 4:
        pairwise(lits)
    elif encoding is AMOEncoding.SEQUENTIAL:
        _amo_sequential(sink, lits)
    elif encoding is AMOEncoding.COMMANDER:
        _amo_commander(sink, lits, pairwise)
    else:  # pragma: no cover - enum exhausts the options
        raise ValueError(f"unknown at-most-one encoding: {encoding}")


def exactly_one(
    sink,
    literals: Sequence[int],
    encoding: AMOEncoding | str = AMOEncoding.SEQUENTIAL,
    pairwise: PairwiseEmitter | None = None,
) -> None:
    """Constrain ``literals`` so that exactly one of them is true."""
    at_least_one(sink, literals)
    at_most_one(sink, literals, encoding, pairwise)


def _amo_pairwise(sink, lits: list[int]) -> None:
    """Quadratic pairwise at-most-one: ``¬a ∨ ¬b`` for every pair."""
    sink.add_clauses(*weave(pairwise_columns(lits)))


def _amo_sequential(sink, lits: list[int]) -> None:
    """Sinz sequential counter at-most-one, written as one block.

    Introduces ``n - 1`` auxiliary register variables ``s_i`` meaning "one of
    the first ``i + 1`` literals is true" and chains them, producing ``3n - 4``
    clauses.
    """
    regs = sink.new_vars(len(lits) - 1)
    sink.add_clauses(*weave(sequential_columns(lits, regs)))


def _amo_commander(
    sink, lits: list[int], pairwise: PairwiseEmitter, group_size: int = 4
) -> None:
    """Commander-variable at-most-one, recursing over literal groups."""
    n = len(lits)
    if n <= group_size + 1:
        pairwise(lits)
        return
    commanders: list[int] = []
    for start in range(0, n, group_size):
        group = lits[start : start + group_size]
        commander = sink.new_var()
        commanders.append(commander)
        # At most one literal of the group is true.
        pairwise(group)
        # commander is true iff some group literal is true.
        sink.add_clauses(array("i", [-commander, *group]),
                         array("i", (len(group) + 1,)))
        sink.add_clauses(*weave((array("i", (commander,)) * len(group),
                                 array("i", [-lit for lit in group]))))
    _amo_commander(sink, commanders, pairwise, group_size)


def count_true(literals: Sequence[int], assignment: dict[int, bool]) -> int:
    """Count how many of ``literals`` are true under ``assignment``.

    Utility for tests and for validating solver models against cardinality
    constraints.
    """
    total = 0
    for lit in literals:
        value = assignment.get(abs(lit), False)
        if value == (lit > 0):
            total += 1
    return total
