"""CNF encoding of the CGRA mapping problem (paper Section IV-C).

Literals are of the form ``x[n, p, c, it]`` — node ``n`` executes on PE ``p``
at kernel cycle ``c``, carrying the KMS iteration label ``it``.  Three
constraint families are produced:

* **C1** — for every node, exactly one of its literals is true (Equation 1).
* **C2** — at most one node per (PE, kernel cycle) slot (Equation 2).
* **C3** — every DFG dependency connects neighbouring (or identical) PEs with
  modulo-schedule-consistent timing (Equation 3), and values travelling to a
  neighbour through the producer's output register are not overwritten before
  consumption (Equations 4 and 5).

On heterogeneous fabrics the variable space is *capability-pruned*: a literal
``x[n, p, c, it]`` is only created when PE ``p`` implements the functional
class of node ``n``'s opcode, so illegal placements cost neither variables
nor clauses (``EncodingStats.num_pruned_placements`` reports the saving; on a
homogeneous fabric it is zero and the encoding is literal-for-literal the
classic one).

The paper presents C3 as a disjunction over compatible literal pairs; here it
is encoded equivalently (given the exactly-one constraints of C1) as two
implication families — ``source literal → one of its compatible destination
literals`` and vice versa — plus conditional "no overwrite" clauses that use
one auxiliary *occupancy* variable per (PE, cycle) slot to stay compact.

The encoder can emit into two kinds of targets.  By default it builds a
standalone :class:`repro.sat.cnf.CNF` (the classic one-shot interface).  For
the mapping loop it instead emits straight into the attempt's live
:class:`repro.sat.backend.CDCLBackend`, with every clause guarded by a
per-attempt *selector* literal: ``clause`` becomes ``¬selector ∨ clause``, so
the whole constraint group is active only while the mapper assumes
``selector``, and satisfiability under that assumption is equivalent to the
standalone formula's.  The guard also routes guard-tailed ternary clauses
onto the solver's guarded implication lists.

C1–C3 are built by the native core's emission kernel (``enc_*`` in
``sat/_cdcl.c``) from small per-encode tables; this module allocates the
placement variables, hands the kernel those tables and replays what it
built into the sink.  ``tests/core/test_emission_stream.py`` pins the
resulting clause streams.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cgra.architecture import CGRA
from repro.core.mobility import KernelMobilitySchedule
from repro.dfg.graph import DFG
from repro.exceptions import EncodingError
from repro.sat.cnf import CNF, flatten
from repro.sat.encodings import AUTO_PAIRWISE_LIMIT, AMOEncoding

if TYPE_CHECKING:
    from ctypes import CDLL

#: Event kinds in the native emission kernel's log (``EV_*`` in
#: ``sat/_cdcl.c``): allocate through ``new_vars``, allocate one variable
#: through ``new_var``, flush the buffers.
_EV_ALLOC, _EV_NEWVAR, _EV_FLUSH = 1, 2, 3
#: ``AMO_*`` codes of the kernel.
_AMO_CODES = {AMOEncoding.PAIRWISE: 0, AMOEncoding.SEQUENTIAL: 1,
              AMOEncoding.COMMANDER: 2, AMOEncoding.AUTO: 3}


def _address(values: array) -> int:
    return values.buffer_info()[0]


@dataclass(frozen=True)
class EncoderConfig:
    """Options controlling the shape and strictness of the encoding."""

    amo_encoding: AMOEncoding = AMOEncoding.AUTO
    #: Maximum KMS-iteration distance between the two endpoints of a
    #: dependency (the paper considers "literals that are at most one
    #: iteration apart"); ``None`` removes the restriction.
    max_iteration_span: int | None = None
    #: When True, a value sent to a neighbouring PE lives in the producer's
    #: output register and must not be overwritten before consumption
    #: (Equation 5).  The default is False — the fabric lets a consumer read
    #: the producer's register file directly (the paper's Equation 4 path,
    #: with liveness accounted for by register allocation); the strict
    #: output-register model is kept for the ablation study.
    enforce_output_register: bool = False
    #: Restrict one anchor node (the most connected one) to the grid's
    #: symmetry fundamental domain.  Sound (grid automorphisms map legal
    #: mappings to legal mappings) and considerably speeds up UNSAT proofs.
    symmetry_breaking: bool = True


@dataclass
class EncodingStats:
    """Size statistics of a generated encoding."""

    num_variables: int = 0
    num_clauses: int = 0
    num_c1_clauses: int = 0
    num_c2_clauses: int = 0
    num_c3_clauses: int = 0
    num_symmetry_clauses: int = 0
    #: ``x[n, p, c, it]`` literals *not* created because PE ``p`` lacks the
    #: capability for node ``n``'s opcode.  Zero on homogeneous fabrics (the
    #: pruned encoding is then literal-for-literal the classic one).
    num_pruned_placements: int = 0
    #: Exact duplicate clauses the constraint generators produced and the
    #: emission kernel dropped (e.g. the same implication reached through two
    #: dependency edges, or a same-slot pair of one node emitted by both C1
    #: and C2).
    num_duplicate_clauses: int = 0
    #: Flat batches the emitter pushed into the sink — the whole constraint
    #: group crosses the encoder/solver boundary in this many calls instead
    #: of one per clause.
    num_batches: int = 0


class _Emitter:
    """Flat-buffer clause sink for one encoding, optionally guarding clauses.

    Wraps anything exposing ``new_var``/``new_vars`` and the flat
    ``add_clauses`` (a :class:`CNF` or a live solver).  A session
    of the native emission kernel (:meth:`attach`) builds whole constraint
    families (:meth:`run`).  When ``selector`` is given, every clause gets
    ``¬selector`` at its tail so the whole group hangs off one assumption
    literal; the tail keeps the watched literals (the first two) the ones
    the unguarded encoding would watch, so propagation inside a live
    attempt follows the same trajectory as a fresh solver on the standalone
    formula.  Exact duplicate clauses are dropped across the whole
    encoding, hashing only the clauses that can repeat another (see
    :meth:`add_lists` and DESIGN.md).

    Clauses accumulate in two ``array('i')`` buffers (literals back to
    back, one length per clause) which reach the sink's ``add_clauses``
    unchanged, so the native solver core reads them without a copy.  The
    counters feed :class:`EncodingStats`.

    Callers must :meth:`flush` once emission is complete and :meth:`close`
    the kernel session; :meth:`MappingEncoder.encode` does.
    """

    __slots__ = ("_sink", "_guard", "_lits", "_lens", "_kernel",
                 "num_clauses", "num_vars_created", "num_duplicates", "num_batches")

    #: Buffered literals that trigger a flush; bounds the buffers' memory
    #: on very large encodings (most encodings go out in one batch).
    FLUSH_LITERALS = 1 << 18

    def __init__(self, sink, selector: int | None = None) -> None:
        self._sink = sink
        self._guard = -selector if selector is not None else None
        self._lits = array("i")
        self._lens = array("i")
        self._kernel: tuple[CDLL, int] | None = None
        self.num_clauses = 0
        self.num_vars_created = 0
        self.num_duplicates = 0
        self.num_batches = 0

    def new_var(self) -> int:
        self.num_vars_created += 1
        return self._sink.new_var()

    def new_vars(self, count: int) -> list[int]:
        variables = self._sink.new_vars(count)
        self.num_vars_created += len(variables)
        return variables

    def add_lists(self, clauses: list[list[int]], may_repeat: bool) -> None:
        """Append clauses given as one list each, guarded like the rest.

        When the clauses ``may_repeat`` one emitted earlier, each is hashed
        on its sorted literal tuple (the guard is not part of the key) and
        dropped when already seen.
        """
        literals, lengths = flatten(clauses)
        self.run("enc_lists", _address(literals), _address(lengths),
                 len(clauses), int(may_repeat))

    def attach(self, lib: CDLL, handle: int) -> None:
        """Emit through the native kernel session ``handle`` from now on."""
        self._kernel = (lib, handle)

    def close(self) -> None:
        """Free the kernel session, if any."""
        if self._kernel is not None:
            lib, handle = self._kernel
            self._kernel = None
            lib.enc_free(handle)

    def run(self, function: str, *args) -> None:
        """Call the kernel's ``function`` and replay its output into the sink.

        The kernel leaves its clauses plus a log of the variable
        allocations and buffer flushes it made along the way; the log is
        replayed in order, so the sink sees each allocation and each flat
        batch at its place in the stream.
        """
        from repro.sat.native import emission_result

        lib, handle = self._kernel
        getattr(lib, function)(handle, len(self._lits), *args)
        clauses, duplicates, literals, lengths, events = emission_result(lib, handle)
        self.num_clauses += clauses
        self.num_duplicates += duplicates
        done_lits = done_lens = 0
        for index in range(0, len(events), 3):
            kind, first, second = events[index:index + 3]
            if kind == _EV_FLUSH:
                self._lits.frombytes(literals[4 * done_lits:4 * first])
                self._lens.frombytes(lengths[4 * done_lens:4 * second])
                done_lits, done_lens = first, second
                self.flush()
                continue
            got = self.new_var() if kind == _EV_NEWVAR else self.new_vars(first)[0]
            if got != second:
                raise EncodingError(
                    f"the clause sink allocated variable {got} where the "
                    f"emission kernel expected {second}: sinks must count "
                    f"variables up from the last one allocated"
                )
        self._lits.frombytes(literals[4 * done_lits:])
        self._lens.frombytes(lengths[4 * done_lens:])

    def flush(self) -> None:
        """Push the buffered clauses into the sink as one flat batch."""
        if not self._lens:
            return
        literals, lengths = self._lits, self._lens
        self._lits, self._lens = array("i"), array("i")
        self.num_batches += 1
        # The constraint generators only build clauses over distinct
        # variables, so the sink may skip intra-clause hygiene checks;
        # passing the guard literal routes guard-tailed ternary clauses
        # onto the solver's guard-aware implication lists.
        self._sink.add_clauses(literals, lengths, guard=self._guard, trusted=True)


@dataclass
class MappingEncoding:
    """A mapping instance plus the variable bookkeeping to decode models.

    ``cnf`` holds the standalone formula in one-shot mode and is ``None``
    when the encoder emitted into a live solver; ``selector`` is the
    assumption literal guarding the attempt's constraint group in that case.
    """

    cnf: CNF | None
    variables: dict[tuple[int, int, int, int], int]
    stats: EncodingStats = field(default_factory=EncodingStats)
    selector: int | None = None

    def decode(self, model: dict[int, bool]) -> dict[int, tuple[int, int, int]]:
        """Extract ``node -> (pe, cycle, iteration)`` from a SAT model."""
        placements: dict[int, tuple[int, int, int]] = {}
        for (node, pe, cycle, iteration), var in self.variables.items():
            if model.get(var, False):
                if node in placements:
                    raise EncodingError(
                        f"model places node {node} twice: {placements[node]} and "
                        f"{(pe, cycle, iteration)}"
                    )
                placements[node] = (pe, cycle, iteration)
        return placements


class MappingEncoder:
    """Builds the CNF formula for one (DFG, CGRA, II) mapping instance."""

    def __init__(
        self,
        dfg: DFG,
        cgra: CGRA,
        kms: KernelMobilitySchedule,
        config: EncoderConfig | None = None,
        sink=None,
        selector: int | None = None,
    ) -> None:
        """``sink`` is a live solver to emit into (``None`` builds a
        standalone CNF); ``selector`` guards every emitted clause, to be
        solved under the assumption ``selector``, and requires a ``sink``."""
        if selector is not None and sink is None:
            raise EncodingError("a selector literal requires a backend sink")
        self.dfg = dfg
        self.cgra = cgra
        self.kms = kms
        self.config = config or EncoderConfig()
        self._cnf = CNF() if sink is None else None
        self._selector = selector
        self._emit = _Emitter(self._cnf if sink is None else sink, selector)
        self._variables: dict[tuple[int, int, int, int], int] = {}
        self._stats = EncodingStats()
        # Capability pruning: a node's literals only range over the PEs that
        # implement its opcode's class.  On a homogeneous fabric every node is
        # allowed everywhere and the encoding is unchanged.
        self._allowed_pes: dict[int, tuple[int, ...]] = {}
        for node in dfg.nodes:
            allowed = cgra.pes_supporting(node.opcode)
            if not allowed:
                raise EncodingError(
                    f"no PE of {cgra.name!r} implements "
                    f"{node.opcode.op_class.value} (needed by node "
                    f"{node.node_id}, {node.opcode.value})"
                )
            self._allowed_pes[node.node_id] = allowed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def encode(self) -> MappingEncoding:
        """Generate the full CNF formula for the mapping instance.

        Loads the native core first (building it on first use); raises
        :class:`repro.sat.backend.BackendUnavailableError` when it cannot.
        """
        # Local import: the native module is also ``python -m``'s entry
        # point, which must not be imported ahead of it.
        from repro.sat import native

        lib = native.load()
        try:
            self._open_kernel(lib, self._create_variables())
            self._encode_c1()
            self._encode_c2()
            self._encode_c3()
            if self.config.symmetry_breaking:
                self._encode_symmetry_breaking()
            self._emit.flush()
        finally:
            self._emit.close()
        self._stats.num_variables = self._emit.num_vars_created
        self._stats.num_clauses = self._emit.num_clauses
        self._stats.num_duplicate_clauses = self._emit.num_duplicates
        self._stats.num_batches = self._emit.num_batches
        return MappingEncoding(
            cnf=self._cnf,
            variables=self._variables,
            stats=self._stats,
            selector=self._selector,
        )

    # ------------------------------------------------------------------
    # Variable creation
    # ------------------------------------------------------------------
    def _create_variables(self) -> list[list[int]]:
        """Allocate one variable block per node, slot-major and PE-minor;
        return the blocks."""
        num_pes = self.cgra.num_pes
        blocks = []
        for node_id in self.dfg.node_ids:
            slots = self.kms.node_slots(node_id)
            if not slots:
                raise EncodingError(f"node {node_id} has no KMS slots")
            allowed = self._allowed_pes[node_id]
            self._stats.num_pruned_placements += (num_pes - len(allowed)) * len(slots)
            # One bulk allocation per node instead of one call chain per
            # (slot, PE) literal.
            block = self._emit.new_vars(len(slots) * len(allowed))
            self._variables.update(zip([
                (node_id, pe, slot.cycle, slot.iteration)
                for slot in slots for pe in allowed
            ], block))
            blocks.append(block)
        return blocks

    def _open_kernel(self, lib: CDLL, blocks: list[list[int]]) -> None:
        """Open the emission kernel session: per node its variable block's
        first variable, its slots, its PEs and whether its literals share
        one twin key; per PE its neighbours (self included)."""
        # Two literals of one node on the same PE and kernel cycle
        # (differing only in iteration label) are twins: their pair sits
        # in the node's C1 rows and in the slot's C2 rows, so the kernel
        # hashes twin pairs.  Under Equation 5 a self-loop's "forbidden
        # outright" pairs are pairs of one node's literals, which its C1
        # pairwise rows may already hold: every pair of such a node's
        # literals is hashed.
        self_looped = {
            edge.src for edge in self.dfg.edges if edge.src == edge.dst
        } if self.config.enforce_output_register else set()
        base, slot_off, cycles, iterations = (array("i") for _ in range(4))
        pe_off, pes, whole = array("i"), array("i"), array("i")
        for node_id, block in zip(self.dfg.node_ids, blocks):
            if block[-1] - block[0] != len(block) - 1:
                raise EncodingError("the clause sink allocated a non-contiguous "
                                    "variable block")
            slots = self.kms.node_slots(node_id)
            base.append(block[0])
            slot_off.append(len(cycles))
            cycles.extend(slot.cycle for slot in slots)
            iterations.extend(slot.iteration for slot in slots)
            pe_off.append(len(pes))
            pes.extend(self._allowed_pes[node_id])
            whole.append(node_id in self_looped)
        slot_off.append(len(cycles))
        pe_off.append(len(pes))
        nbr_off, nbr = array("i", (0,)), array("i")
        for pe in range(self.cgra.num_pes):
            nbr.extend(self.cgra.neighbours(pe, include_self=True))
            nbr_off.append(len(nbr))
        config = self.config
        span = config.max_iteration_span
        params = array("i", (
            self.kms.ii, self.cgra.num_pes, len(base),
            -self._selector if self._selector is not None else 0,
            _AMO_CODES[AMOEncoding(config.amo_encoding)], AUTO_PAIRWISE_LIMIT,
            span is not None, span or 0, config.enforce_output_register,
            blocks[-1][-1] + 1, self._emit.FLUSH_LITERALS,
        ))
        # The kernel copies the tables, so they need not outlive this call.
        handle = lib.enc_new(*map(_address, (
            params, base, slot_off, cycles, iterations, pe_off, pes, whole,
            nbr_off, nbr,
        )))
        self._emit.attach(lib, handle)

    def _var(self, node: int, pe: int, cycle: int, iteration: int) -> int:
        return self._variables[(node, pe, cycle, iteration)]

    # ------------------------------------------------------------------
    # C1: every node is placed exactly once
    # ------------------------------------------------------------------
    def _encode_c1(self) -> None:
        before = self._emit.num_clauses
        self._emit.run("enc_c1")
        self._stats.num_c1_clauses = self._emit.num_clauses - before

    # ------------------------------------------------------------------
    # C2: at most one node per (PE, cycle) slot
    # ------------------------------------------------------------------
    def _encode_c2(self) -> None:
        before = self._emit.num_clauses
        self._emit.run("enc_c2")
        self._stats.num_c2_clauses = self._emit.num_clauses - before

    # ------------------------------------------------------------------
    # C3: dependencies — neighbourhood, timing and output-register survival
    # ------------------------------------------------------------------
    def _encode_c3(self) -> None:
        """Every clause of a dependency mentions exactly its two endpoint
        nodes, so only edges sharing their node pair with another edge
        (duplicates, 2-cycles) or looping on one node can repeat a clause;
        the emitter hashes just those (and the units, which may match a
        symmetry-breaking unit)."""
        before = self._emit.num_clauses
        pairs = Counter(frozenset((edge.src, edge.dst)) for edge in self.dfg.edges)
        repeats = [
            pairs[frozenset((edge.src, edge.dst))] > 1 or edge.src == edge.dst
            for edge in self.dfg.edges
        ]
        index = {node_id: i for i, node_id in enumerate(self.dfg.node_ids)}
        edges = array("i")
        for edge, may_repeat in zip(self.dfg.edges, repeats):
            edges.extend((index[edge.src], index[edge.dst], edge.distance,
                          self.dfg.node(edge.src).latency, may_repeat))
        self._emit.run("enc_c3", len(repeats), _address(edges))
        self._stats.num_c3_clauses = self._emit.num_clauses - before

    # ------------------------------------------------------------------
    # Symmetry breaking
    # ------------------------------------------------------------------
    def _encode_symmetry_breaking(self) -> None:
        """Pin the most connected node to the grid's fundamental domain.

        Sound on heterogeneous fabrics too: the fundamental domain is built
        from *capability-preserving* automorphisms, so transforming a legal
        mapping until the anchor reaches the domain keeps every node on a PE
        of the same capability signature — the anchor necessarily lands on a
        PE inside ``domain ∩ allowed(anchor)``.
        """
        before = self._emit.num_clauses
        domain = set(self.cgra.symmetry_fundamental_domain())
        if len(domain) >= self.cgra.num_pes:
            return
        anchor = max(
            self.dfg.node_ids,
            key=lambda n: (
                len(self.dfg.predecessors(n)) + len(self.dfg.successors(n)),
                -n,
            ),
        )
        self._emit.add_lists([
            [-self._var(anchor, pe, slot.cycle, slot.iteration)]
            for slot in self.kms.node_slots(anchor)
            for pe in self._allowed_pes[anchor]
            if pe not in domain
        ], may_repeat=True)
        self._stats.num_symmetry_clauses = self._emit.num_clauses - before
