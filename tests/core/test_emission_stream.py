"""Pinned clause streams: the encoder hands every sink the recorded stream.

Each case encodes one attempt into a sink that hashes every call it
receives, in order: each variable allocation (``new_var`` or
``new_vars`` and its count) and each flat batch (its literals, clause
lengths, guard and ``trusted`` flag).  The placement variables and the
:class:`EncodingStats` close the hash.  So a digest pins which clauses the
sink gets, in which order, with which literal order, and where the
variable allocations and batch boundaries fall between them.

The digests in ``emission_digests.json`` were recorded from the native
emission kernel while it was still checked, case by case, against a
textbook Python emitter: one list per clause, exact duplicates dropped by
sorted literal tuple across the whole encoding, the selector guard at the
tail.  Any change to the encoder, the cardinality encodings or the kernel
that moves a clause, a literal or an allocation changes a digest.

After a deliberate change of the stream, regenerate the fixture with::

    PYTHONPATH=src python tests/core/test_emission_stream.py          # tier-1 cases
    PYTHONPATH=src python tests/core/test_emission_stream.py --full   # and the slow sweep
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from array import array
from pathlib import Path

import pytest

from repro.cgra.architecture import CGRA
from repro.cgra.presets import mul_sparse
from repro.core import encoder as encoder_module
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.dfg.graph import DFG
from repro.kernels import get_kernel
from repro.sat.encodings import AMOEncoding

FIXTURE = Path(__file__).with_name("emission_digests.json")

STREAM_KERNELS = ("nw", "stringsearch", "basicmath")
FULL_SWEEP_KERNELS = ("sha", "gsm", "patricia", "bitcount", "backprop", "nw", "srand",
                      "hotspot", "basicmath", "stringsearch")


def _le_bytes(values) -> bytes:
    buffer = array("i", values)
    if sys.byteorder == "big":
        buffer.byteswap()
    return buffer.tobytes()


class HashingSink:
    """A clause sink hashing every call it receives, in order."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.batches = 0
        self.flags: set[tuple[int | None, bool]] = set()
        self._hash = hashlib.sha256()

    def _record(self, *fields) -> None:
        self._hash.update(repr(fields).encode())

    def new_var(self) -> int:
        self._record("new_var")
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        self._record("new_vars", count)
        first = self.num_vars + 1
        self.num_vars += count
        return list(range(first, self.num_vars + 1))

    def add_clauses(self, literals, lengths, guard=None, trusted=False) -> None:
        self._record("batch", len(literals), len(lengths), guard, trusted)
        self._hash.update(_le_bytes(literals))
        self._hash.update(_le_bytes(lengths))
        self.batches += 1
        self.flags.add((guard, trusted))

    def digest(self, encoding) -> str:
        """The stream's digest, closed by the encoding's variables and stats."""
        self._record("variables", list(encoding.variables.items()))
        self._record("stats", dataclasses.asdict(encoding.stats))
        return self._hash.hexdigest()


def _config_label(config: EncoderConfig) -> str:
    return (f"{AMOEncoding(config.amo_encoding).value}"
            f"/span{config.max_iteration_span}"
            f"/eor{int(config.enforce_output_register)}"
            f"/sym{int(config.symmetry_breaking)}")


def encode_case(dfg, cgra, ii, slack, config, guarded):
    """Encode one attempt; return its case id, digest and stats."""
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=slack), ii)
    sink = HashingSink()
    selector = sink.new_var() if guarded else None
    encoding = MappingEncoder(dfg, cgra, kms, config, sink=sink,
                              selector=selector).encode()
    case = (f"{dfg.name}@{cgra.name}/ii{ii}/slack{slack}/{_config_label(config)}"
            f"/{'guarded' if guarded else 'plain'}")
    # Every batch goes out trusted, carrying the attempt's guard; the
    # stats count the emitter's own calls into the sink.
    assert sink.flags <= {(-selector if guarded else None, True)}, case
    assert encoding.stats.num_batches == sink.batches, case
    return case, sink.digest(encoding), encoding.stats


def _sweep(kernel, attempts, configs):
    """Every config, guarded and not, at each ``(fabric, II, slack)``."""
    dfg = get_kernel(kernel)
    for fabric, ii, slack in attempts:
        cgra = fabric()
        for config, guarded in itertools.product(configs(), (False, True)):
            yield dfg, cgra, ii, slack, config, guarded


def _every_config():
    for amo in AMOEncoding:
        yield EncoderConfig(amo_encoding=amo)
        yield EncoderConfig(amo_encoding=amo, enforce_output_register=True)
    # The one slot filter of the dependency rows.
    yield EncoderConfig(max_iteration_span=1)
    yield EncoderConfig(max_iteration_span=1, enforce_output_register=True)


def _amo_configs():
    return [EncoderConfig(amo_encoding=amo) for amo in AMOEncoding]


def stream_cases(kernel):
    attempts = [(lambda: CGRA.square(2), 2, 1), (lambda: mul_sparse(3), 3, 0)]
    return _sweep(kernel, attempts, _every_config)


def full_sweep_cases(kernel):
    fabrics = [lambda: CGRA.square(2), lambda: CGRA.square(3), lambda: CGRA.square(4)]
    return _sweep(kernel, itertools.product(fabrics, (2, 3, 4, 5), (0, 1, 2)),
                  _amo_configs)


def _twin_dfg() -> DFG:
    # The chain 0 -> 1 -> 2 -> 3 -> 4 pins the critical path; node 5 hangs
    # off node 0 alone, so it floats over a long schedule window.
    return DFG.from_edge_list("twins", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])


def twin_cases(amo, guarded):
    dfg = _twin_dfg()
    config = EncoderConfig(amo_encoding=amo, symmetry_breaking=False)
    # On one PE every group is small enough for pairwise rows (or commander
    # groups holding both twins), so every encoding shares twin pairs.
    for cgra in (CGRA(rows=1, cols=1), CGRA.square(2)):
        yield dfg, cgra, 2, 0, config, guarded


def _repeats_dfg() -> DFG:
    return DFG.from_edge_list(
        "repeats", 5,
        [(0, 1), (0, 1), (1, 2), (2, 1, 1), (2, 2, 1), (2, 3), (3, 4), (4, 4, 2)],
    )


def repeat_cases(amo):
    dfg = _repeats_dfg()
    config = EncoderConfig(amo_encoding=amo, enforce_output_register=True)
    for ii, slack in itertools.product((2, 3, 4), (0, 1, 2)):
        yield dfg, CGRA.square(2), ii, slack, config, True


#: The flush threshold of :func:`flush_log_digest`: small enough that a
#: gsm attempt goes out in dozens of batches.
TINY_FLUSH = 97


def flush_log_digest(amo) -> tuple[str, int]:
    """Digest and batch count of a strict-model gsm attempt with a tiny
    flush threshold, so flushes fall between allocations."""
    saved = encoder_module._Emitter.FLUSH_LITERALS
    encoder_module._Emitter.FLUSH_LITERALS = TINY_FLUSH
    try:
        _, digest, stats = encode_case(
            get_kernel("gsm"), CGRA.square(3), 3, 1,
            EncoderConfig(amo_encoding=amo, enforce_output_register=True), True,
        )
    finally:
        encoder_module._Emitter.FLUSH_LITERALS = saved
    return digest, stats.num_batches


def full_sweep_digest(kernel) -> str:
    """One digest over every full-sweep case of ``kernel``, in order."""
    rolling = hashlib.sha256()
    for case in full_sweep_cases(kernel):
        name, digest, _ = encode_case(*case)
        rolling.update(f"{name}={digest}\n".encode())
    return rolling.hexdigest()


PINNED = json.loads(FIXTURE.read_text()) if FIXTURE.is_file() else {}


def _check(cases) -> list:
    """Assert every case's digest; return their stats."""
    stats = []
    for case in cases:
        name, digest, case_stats = encode_case(*case)
        assert PINNED["cases"].get(name) == digest, name
        stats.append(case_stats)
    return stats


@pytest.mark.parametrize("kernel", STREAM_KERNELS)
def test_stream_matches_pinned_digests(kernel):
    stats = _check(stream_cases(kernel))
    assert len(stats) == 40
    # The sweep exercises the dedup: dropped clauses are pinned too.
    assert sum(s.num_duplicate_clauses for s in stats) > 0


@pytest.mark.slow
@pytest.mark.parametrize("kernel", FULL_SWEEP_KERNELS)
def test_full_sweep_matches_pinned_digest(kernel):
    assert full_sweep_digest(kernel) == PINNED["full_sweep"][kernel]


@pytest.mark.parametrize("amo", [AMOEncoding.PAIRWISE, AMOEncoding.AUTO,
                                 AMOEncoding.SEQUENTIAL, AMOEncoding.COMMANDER])
@pytest.mark.parametrize("guarded", [False, True])
def test_twin_pairs_shared_by_c1_and_c2(amo, guarded):
    """A KMS window longer than the II puts two literals of one node on the
    same PE and kernel cycle: C1 and C2 both hold that pair, and the
    stream keeps it once."""
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(_twin_dfg(), slack=0), 2)
    cycles = {slot.cycle for slot in kms.node_slots(5)}
    assert len(kms.node_slots(5)) > len(cycles), "node 5 needs twin slots"
    single, _ = _check(twin_cases(amo, guarded))
    assert single.num_duplicate_clauses > 0


@pytest.mark.parametrize("amo", list(AMOEncoding))
def test_repeatable_dependencies(amo):
    """A self-loop, a duplicate edge and a 2-cycle under the strict
    output-register model: the only dependency clauses that can repeat."""
    for stats in _check(repeat_cases(amo)):
        assert stats.num_duplicate_clauses > 0


@pytest.mark.parametrize("amo", list(AMOEncoding))
def test_flush_points_and_allocations_interleave_as_pinned(amo):
    """With a tiny flush threshold the replay flushes after the pinned
    blocks and between the pinned allocations."""
    digest, batches = flush_log_digest(amo)
    assert digest == PINNED["flush_logs"][amo.value]
    assert batches > 10


def record(full: bool) -> dict:
    """Compute the fixture's digests (the slow sweep only when ``full``)."""
    cases = itertools.chain(
        *(stream_cases(kernel) for kernel in STREAM_KERNELS),
        *(twin_cases(amo, guarded) for amo in AMOEncoding for guarded in (False, True)),
        *(repeat_cases(amo) for amo in AMOEncoding),
    )
    pinned = {
        "cases": dict(encode_case(*case)[:2] for case in cases),
        "flush_logs": {amo.value: flush_log_digest(amo)[0] for amo in AMOEncoding},
        "full_sweep": PINNED.get("full_sweep", {}),
    }
    if full:
        pinned["full_sweep"] = {kernel: full_sweep_digest(kernel)
                                for kernel in FULL_SWEEP_KERNELS}
    return pinned


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record("--full" in sys.argv[1:]), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
