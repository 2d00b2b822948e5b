"""The native emission kernel: fallback, flush replay, allocation checks.

Stream identity against the reference emitter is in
``test_emission_stream.py``; this module covers what surrounds the kernel.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cgra.architecture import CGRA
from repro.core import encoder as encoder_module
from repro.core.encoder import EncoderConfig, MappingEncoder, kernel_mismatch
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.exceptions import EncodingError
from repro.kernels import get_kernel
from repro.sat import native
from repro.sat.encodings import AMOEncoding

needs_kernel = pytest.mark.skipif(native.load() is None,
                                  reason="native core unavailable")


def _run(kernel, size):
    outcome = SatMapItMapper(MapperConfig(timeout=120, random_seed=0)).map(
        get_kernel(kernel), CGRA.square(size)
    )
    attempts = [(a.ii, a.schedule_slack, a.status, a.num_clauses, a.num_variables,
                 a.conflicts) for a in outcome.attempts]
    return outcome.ii, outcome.mapping.to_json(), attempts


@needs_kernel
@pytest.mark.parametrize("kernel, size", [("nw", 3), ("gsm", 2)])
def test_mapper_without_the_native_library_matches(monkeypatch, tmp_path, kernel, size):
    """With no native library the Python generators (and the Python engine)
    take over, and the run is the same: II, mapping and every attempt."""
    with_kernel = _run(kernel, size)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setattr(native, "cache_root", lambda: tmp_path / "cache")
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    assert native.load() is None
    assert _run(kernel, size) == with_kernel


def _encode(sink, amo=AMOEncoding.SEQUENTIAL, enforce=False):
    dfg = get_kernel("gsm")
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg, slack=1), 3)
    config = EncoderConfig(amo_encoding=amo, enforce_output_register=enforce)
    return MappingEncoder(dfg, CGRA.square(3), kms, config, sink=sink,
                          selector=sink.new_var()).encode()


class EventLog:
    """A sink logging allocations and batches in one sequence."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.log: list[tuple] = []

    def new_var(self) -> int:
        self.log.append(("new_var",))
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        self.log.append(("new_vars", count))
        first = self.num_vars + 1
        self.num_vars += count
        return list(range(first, self.num_vars + 1))

    def add_clauses(self, literals, lengths, guard=None, trusted=False) -> None:
        self.log.append(("batch", tuple(literals), tuple(lengths), guard, trusted))


@needs_kernel
@pytest.mark.parametrize("amo", list(AMOEncoding))
def test_flush_points_and_allocations_interleave_as_in_python(monkeypatch, amo):
    """With a tiny flush threshold the kernel's replay must flush after the
    same blocks and between the same allocations as the Python emitter."""
    monkeypatch.setattr(encoder_module._Emitter, "FLUSH_LITERALS", 97)
    logs = []
    for python in (False, True):
        with monkeypatch.context() as patch:
            if python:
                patch.setattr(native, "load", lambda: None)
            sink = EventLog()
            stats = _encode(sink, amo, enforce=True).stats
        logs.append((sink.log, dataclasses.asdict(stats)))
    assert logs[0] == logs[1]
    assert logs[0][1]["num_batches"] > 10


class GappySink(EventLog):
    """Hands out every other variable number."""

    def new_vars(self, count: int) -> list[int]:
        first = self.num_vars + 1
        self.num_vars += 2 * count
        return list(range(first, self.num_vars + 1, 2))


@needs_kernel
def test_sink_with_gaps_is_refused():
    with pytest.raises(EncodingError, match="non-contiguous"):
        _encode(GappySink())


class SkippingSink(EventLog):
    """Allocates one variable behind the encoder's back before each bulk
    allocation after the first."""

    def new_vars(self, count: int) -> list[int]:
        if self.log:
            self.num_vars += 1
        return super().new_vars(count)


@needs_kernel
def test_sink_skipping_variables_is_refused():
    with pytest.raises(EncodingError, match="expected"):
        _encode(SkippingSink())


@needs_kernel
def test_self_check_and_report(capsys):
    assert kernel_mismatch() is None
    assert native.main() == 0
    out = capsys.readouterr().out
    assert "emission kernel: in use" in out
    assert "identical to the Python encoder" in out


@needs_kernel
def test_report_fails_on_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(encoder_module, "kernel_mismatch", lambda: "clause streams differ")
    assert native.main() == 1
    assert "check FAILED: clause streams differ" in capsys.readouterr().out
