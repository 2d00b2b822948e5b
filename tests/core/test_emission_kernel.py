"""The native emission kernel: allocation checks and the core's self-report.

The kernel's clause streams are pinned in ``test_emission_stream.py``; this
module covers what surrounds the kernel.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.exceptions import EncodingError
from repro.kernels import get_kernel
from repro.sat import native
from repro.sat.encodings import AMOEncoding


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


class GappySink(EventLog):
    """Hands out every other variable number."""

    def new_vars(self, count: int) -> list[int]:
        first = self.num_vars + 1
        self.num_vars += 2 * count
        return list(range(first, self.num_vars + 1, 2))


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


def test_sink_skipping_variables_is_refused():
    with pytest.raises(EncodingError, match="expected"):
        _encode(SkippingSink())


def test_self_report(capsys):
    assert native.main() == 0
    out = capsys.readouterr().out
    assert "solver core: native" in out
    assert native.status().library in out
    assert "fallback" not in out and "Python" not in out


def test_report_fails_when_the_core_cannot_load(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setattr(native, "cache_root", lambda: tmp_path / "cache")
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    assert native.main() == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "native core unavailable: BuildError: no C compiler (cc or gcc) on PATH"
    ]
