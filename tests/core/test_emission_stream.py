"""Stream identity: the flat-buffer emitter hands the sink the textbook stream.

The reference below is the plain definition of what the encoder emits: one
list per clause, exact duplicates dropped by sorted literal tuple across
the whole encoding, the selector guard appended at the tail.  The
production emitter builds clause families in bulk and hashes only the
clauses that can collide; the sink must nevertheless receive exactly the
same clauses in the same order with the same literal order, the same
variables, and the same :class:`EncodingStats` (apart from the batch
count, which must match each emitter's own calls into its sink).

Every stream case runs twice: with the native core's emission kernel
building the clause families, and with the core unavailable, so the
Python generators build them.  The reference always runs the Python
generators.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.cgra.architecture import CGRA
from repro.cgra.presets import mul_sparse
from repro.core import encoder as encoder_module
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.dfg.graph import DFG
from repro.exceptions import EncodingError
from repro.kernels import get_kernel
from repro.sat import native
from repro.sat.backend import CDCLBackend
from repro.sat.cnf import clause_slices, flatten
from repro.sat.encodings import AMOEncoding


class ReferenceEmitter:
    """One list per clause, global sorted-tuple dedup, guard at the tail."""

    def __init__(self, sink, selector=None) -> None:
        self._sink = sink
        self._guard = -selector if selector is not None else None
        self._seen: set[tuple[int, ...]] = set()
        self._clauses: list[list[int]] = []
        self.num_clauses = self.num_vars_created = 0
        self.num_duplicates = self.num_batches = 0

    def new_var(self):
        self.num_vars_created += 1
        return self._sink.new_var()

    def new_vars(self, count):
        self.num_vars_created += count
        return self._sink.new_vars(count)

    def _add(self, clause) -> None:
        key = tuple(sorted(clause))
        if key in self._seen:
            self.num_duplicates += 1
            return
        self._seen.add(key)
        self.num_clauses += 1
        tail = [] if self._guard is None else [self._guard]
        self._clauses.append(list(clause) + tail)

    def add_clauses(self, literals, lengths) -> None:
        for clause in clause_slices(literals, lengths):
            self._add(clause)

    def add_lists(self, clauses, may_repeat) -> None:
        for clause in clauses:
            self._add(clause)

    def pairwise(self, literals, keys) -> None:
        for index, first in enumerate(literals):
            for second in literals[index + 1:]:
                self._add([-first, -second])

    def flush(self) -> None:
        if self._clauses:
            self.num_batches += 1
            self._sink.add_clauses(*flatten(self._clauses), guard=self._guard,
                                   trusted=True)
            self._clauses = []


class RecordingSink:
    """A clause sink that keeps everything it is handed."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.allocations: list[int] = []
        self.clauses: list[tuple[int, ...]] = []
        self.calls: list[tuple[int | None, bool]] = []

    def new_var(self) -> int:
        return self.new_vars(1)[0]

    def new_vars(self, count: int) -> list[int]:
        self.allocations.append(count)
        first = self.num_vars + 1
        self.num_vars += count
        return list(range(first, self.num_vars + 1))

    def add_clauses(self, literals, lengths, guard=None, trusted=False) -> None:
        self.calls.append((guard, trusted))
        self.clauses.extend(tuple(c) for c in clause_slices(literals, lengths))


@pytest.fixture(params=["kernel", "python"])
def emission(request, monkeypatch):
    """Which generators build the production stream: the native emission
    kernel, or the Python ones (the native core made unavailable)."""
    if request.param == "kernel":
        if native.load() is None:
            pytest.skip("native core unavailable")
    else:
        monkeypatch.setattr(native, "load", lambda: None)
    return request.param


def _emit(dfg, cgra, kms, config, guarded):
    sink = RecordingSink()
    selector = sink.new_var() if guarded else None
    encoder = MappingEncoder(dfg, cgra, kms, config, sink=sink, selector=selector)
    encoding = encoder.encode()
    return sink, encoding, encoder._native


def assert_same_stream(monkeypatch, dfg, cgra, ii, slack, config, guarded):
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=slack), ii)
    sink, encoding, kernel = _emit(dfg, cgra, kms, config, guarded)
    with monkeypatch.context() as patch:
        patch.setattr(encoder_module, "_Emitter", ReferenceEmitter)
        patch.setattr(native, "load", lambda: None)
        reference_sink, reference, _ = _emit(dfg, cgra, kms, config, guarded)
    where = f"{dfg.name}@{cgra.name} II={ii} slack={slack} {config} guarded={guarded}"
    assert kernel == (native.load() is not None), where
    assert sink.clauses == reference_sink.clauses, where
    assert sink.allocations == reference_sink.allocations, where
    assert encoding.variables == reference.variables, where
    stats = dataclasses.asdict(encoding.stats)
    expected = dataclasses.asdict(reference.stats)
    # Batches count the sink calls of each emitter; everything else matches.
    assert stats.pop("num_batches") == len(sink.calls), where
    expected.pop("num_batches")
    assert stats == expected, where
    guard = -1 if guarded else None
    assert set(sink.calls) <= {(guard, True)}, where
    return encoding.stats


def _sweep(kernel, attempts, configs):
    """Every config, guarded and not, at each ``(fabric, II, slack)``."""
    dfg = get_kernel(kernel)
    for fabric, ii, slack in attempts:
        cgra = fabric()
        for config, guarded in itertools.product(configs(dfg, cgra), (False, True)):
            yield dfg, cgra, ii, slack, config, guarded


def _every_config(dfg, cgra):
    for amo in AMOEncoding:
        yield EncoderConfig(amo_encoding=amo)
        yield EncoderConfig(amo_encoding=amo, enforce_output_register=True)
    # The one slot filter of the dependency rows.
    yield EncoderConfig(max_iteration_span=1)
    yield EncoderConfig(max_iteration_span=1, enforce_output_register=True)


def _amo_configs(dfg, cgra):
    return [EncoderConfig(amo_encoding=amo) for amo in AMOEncoding]


@pytest.mark.parametrize("kernel", ["nw", "stringsearch", "basicmath"])
def test_stream_matches_reference(monkeypatch, emission, kernel):
    attempts = [(lambda: CGRA.square(2), 2, 1), (lambda: mul_sparse(3), 3, 0)]
    duplicates = 0
    for case in _sweep(kernel, attempts, _every_config):
        duplicates += assert_same_stream(monkeypatch, *case).num_duplicate_clauses
    # The sweep does exercise the dedup: dropped clauses were compared too.
    assert duplicates > 0


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["sha", "gsm", "patricia", "bitcount", "backprop",
                                    "nw", "srand", "hotspot", "basicmath",
                                    "stringsearch"])
def test_stream_matches_reference_full_sweep(monkeypatch, emission, kernel):
    fabrics = [lambda: CGRA.square(2), lambda: CGRA.square(3), lambda: CGRA.square(4)]
    attempts = itertools.product(fabrics, (2, 3, 4, 5), (0, 1, 2))
    for case in _sweep(kernel, attempts, _amo_configs):
        assert_same_stream(monkeypatch, *case)


def _twin_dfg() -> DFG:
    # The chain 0 -> 1 -> 2 -> 3 -> 4 pins the critical path; node 5 hangs
    # off node 0 alone, so it floats over a long schedule window.
    return DFG.from_edge_list("twins", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])


@pytest.mark.parametrize("amo", [AMOEncoding.PAIRWISE, AMOEncoding.AUTO,
                                 AMOEncoding.SEQUENTIAL, AMOEncoding.COMMANDER])
@pytest.mark.parametrize("guarded", [False, True])
def test_twin_pairs_shared_by_c1_and_c2(monkeypatch, emission, amo, guarded):
    """A KMS window longer than the II puts two literals of one node on the
    same PE and kernel cycle: C1 and C2 both hold that pair."""
    dfg = _twin_dfg()
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=0), 2)
    cycles = {slot.cycle for slot in kms.node_slots(5)}
    assert len(kms.node_slots(5)) > len(cycles), "node 5 needs twin slots"
    config = EncoderConfig(amo_encoding=amo, symmetry_breaking=False)
    # On one PE every group is small enough for pairwise rows (or commander
    # groups holding both twins), so every encoding shares twin pairs.
    single = assert_same_stream(monkeypatch, dfg, CGRA(rows=1, cols=1), 2, 0,
                                config, guarded)
    assert single.num_duplicate_clauses > 0
    assert_same_stream(monkeypatch, dfg, CGRA.square(2), 2, 0, config, guarded)


@pytest.mark.parametrize("amo", list(AMOEncoding))
def test_repeatable_dependencies(monkeypatch, emission, amo):
    """A self-loop, a duplicate edge and a 2-cycle under the strict
    output-register model: the only dependency clauses that can repeat."""
    dfg = DFG.from_edge_list(
        "repeats", 5,
        [(0, 1), (0, 1), (1, 2), (2, 1, 1), (2, 2, 1), (2, 3), (3, 4), (4, 4, 2)],
    )
    for ii, slack in itertools.product((2, 3, 4), (0, 1, 2)):
        config = EncoderConfig(amo_encoding=amo, enforce_output_register=True)
        stats = assert_same_stream(monkeypatch, dfg, CGRA.square(2), ii, slack,
                                   config, guarded=True)
        assert stats.num_duplicate_clauses > 0


@pytest.mark.skipif(native.load() is None, reason="native core unavailable")
@pytest.mark.parametrize("amo", [AMOEncoding.SEQUENTIAL, AMOEncoding.AUTO])
def test_both_engines_ingest_the_stream_identically(monkeypatch, amo):
    """The flat batches reach the native core without a copy and the Python
    engine by slicing; both must end up searching the same formula."""
    dfg, cgra = get_kernel("gsm"), CGRA.square(3)
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=1), 3)
    runs = []
    for python in (False, True):
        with monkeypatch.context() as patch:
            if python:
                patch.setattr(native, "load", lambda: None)
            backend = CDCLBackend(random_seed=0)
        selector = backend.new_var()
        encoding = MappingEncoder(dfg, cgra, kms, EncoderConfig(amo_encoding=amo),
                                  sink=backend, selector=selector).encode()
        result = backend.solve(assumptions=[selector], conflict_limit=300,
                               model_vars=encoding.variables.values())
        stats = dataclasses.asdict(result.stats)
        stats.pop("solve_time")
        runs.append((type(backend._solver).__name__, result.status, result.model,
                     stats, backend.stats.clauses_added))
    (native_engine, *native_run), (python_engine, *python_run) = runs
    assert (native_engine, python_engine) == ("NativeCDCLSolver", "CDCLSolver")
    assert native_run == python_run


def test_guarded_blocks_must_be_equal_width():
    emitter = encoder_module._Emitter(RecordingSink(), selector=1)
    emitter.add_clauses(*flatten([[2, 3], [-2, -3]]))
    with pytest.raises(EncodingError, match="equal-width"):
        emitter.add_clauses(*flatten([[2, 3], [4]]))
    emitter.flush()
    assert emitter.num_clauses == 2
