"""End-to-end equivalence of the flat-arena core across mapper paths.

The arena rewrite changed the solver's entire data layout plus the default
at-most-one encoding; none of that may change *what* is feasible.  For a
set of paper kernels the full mapper is run through the configurations the
refactor touches — one persistent backend vs a fresh backend per II, AUTO
vs sequential vs pairwise AMO encodings — and every path must deliver the same II with a
simulator-clean mapping.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat.encodings import AMOEncoding
from repro.simulator import CGRASimulator

_KERNELS = ("srand", "stringsearch", "nw", "basicmath")


def _map(kernel: str, size: int = 3, **overrides) -> "object":
    config = MapperConfig(timeout=120, random_seed=0, **overrides)
    return SatMapItMapper(config).map(get_kernel(kernel), CGRA.square(size))


@pytest.mark.parametrize("kernel", _KERNELS)
def test_identical_ii_across_amo_encodings(kernel):
    """AUTO / sequential / pairwise encode the same feasibility."""
    outcomes = {
        amo: _map(kernel, amo_encoding=amo)
        for amo in (AMOEncoding.AUTO, AMOEncoding.SEQUENTIAL,
                    AMOEncoding.PAIRWISE)
    }
    iis = {amo: outcome.ii for amo, outcome in outcomes.items()}
    assert len(set(iis.values())) == 1, f"{kernel}: II diverged {iis}"
    for outcome in outcomes.values():
        assert outcome.success
        assert outcome.mapping.violations() == []
        simulation = CGRASimulator(
            outcome.mapping, outcome.register_allocation
        ).run(4)
        assert simulation.success, simulation.errors


@pytest.mark.parametrize("kernel", _KERNELS)
def test_identical_ii_incremental_vs_one_shot(kernel, fresh_per_ii):
    """Guarded-group solving equals a fresh backend per II."""
    incremental = _map(kernel)
    one_shot = _map(kernel, search=fresh_per_ii)
    assert incremental.success and one_shot.success
    assert incremental.ii == one_shot.ii
    for outcome in (incremental, one_shot):
        assert outcome.mapping.violations() == []


def test_flat_core_counters_surface_in_outcome():
    """The new SolverStats counters flow through to the mapping outcome."""
    outcome = _map("gsm", size=2)
    assert outcome.success
    # gsm on the 2x2 needs real search, so the implication lists and the
    # batching emitter must both have seen traffic.
    assert outcome.binary_propagations > 0
    assert outcome.emission_batches > 0
    assert outcome.arena_bytes > 0
    att = outcome.attempts[-1]
    assert att.propagations >= att.binary_propagations
