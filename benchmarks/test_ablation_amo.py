"""Ablation — at-most-one encoding choice (DESIGN.md §5).

The paper's Equations 1–2 describe the textbook pairwise at-most-one
encoding; the production encoder defaults to the sequential (Sinz) encoding.
This ablation times encode+solve of one mapping instance under each encoding
and checks they agree on satisfiability.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.kernels import get_kernel
from repro.sat.backend import CDCLBackend
from repro.sat.encodings import AMOEncoding

_KERNEL = "basicmath"
_SIZE = 3
_II = 3


def _encode_and_solve(amo: AMOEncoding):
    dfg = get_kernel(_KERNEL)
    cgra = CGRA.square(_SIZE)
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg), _II)
    encoding = MappingEncoder(dfg, cgra, kms, EncoderConfig(amo_encoding=amo)).encode()
    result = CDCLBackend().solve(encoding.cnf, time_limit=60)
    return encoding, result


@pytest.mark.parametrize("amo", list(AMOEncoding))
def test_amo_encoding_ablation(benchmark, amo):
    encoding, result = benchmark.pedantic(
        _encode_and_solve, args=(amo,), rounds=1, iterations=1
    )
    benchmark.extra_info["encoding"] = amo.value
    benchmark.extra_info["clauses"] = encoding.stats.num_clauses
    benchmark.extra_info["variables"] = encoding.stats.num_variables
    benchmark.extra_info["status"] = result.status
    assert result.status in ("SAT", "UNSAT")
    # All encodings must agree with the sequential default.
    _, reference = _encode_and_solve(AMOEncoding.SEQUENTIAL)
    assert result.status == reference.status
