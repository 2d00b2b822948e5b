"""Heuristic II-seeding: prime the SAT search with a feasible upper bound.

The SAT ladder spends nearly all of its wall-clock proving IIs infeasible
upward from the MII and then solving the final II — yet the repo's
heuristic mappers (RAMP, PathSeeker) can often *realise* a feasible II in
milliseconds.  This module runs them as a budgeted pre-pass, and the
mapper uses the best validated result as an upper bound:

* the ladder stops climbing at ``seed.ii - 1`` and falls back to the
  seed mapping when the climb exhausts or times out;
* a seed at the first candidate II (the MII is a lower bound) is returned
  immediately — provably optimal with zero SAT attempts.

A seed is only trusted after the same legality oracle the SAT path answers
to: structural ``violations()`` plus two simulated iterations against the
reference interpreter.  The heuristic mappers validate their own results
too, with the same :func:`repro.simulator.replay_validated`; the re-check
here keeps the seeding layer sound even against a future mapper that does
not.

Seeding never changes the *cache* identity of a problem: it can only
change which of several equally-minimal mappings is found, never the II
of a completed run — the CI equivalence gate
(``repro.experiments.perf --check-strategies``) holds seeded runs to
exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines import run_budgeted
from repro.exceptions import ReproError
from repro.simulator.machine import replay_validated

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.cgra.architecture import CGRA
    from repro.core.mapper import MapperConfig
    from repro.dfg.graph import DFG


@dataclass
class SeedResult:
    """The best validated heuristic mapping found within the seed budget."""

    ii: int
    mapping: object
    allocation: object | None
    #: Which heuristic produced the winning mapping ("ramp"/"pathseeker").
    mapper_name: str
    #: Wall-clock seconds the whole seeding pre-pass spent (all mappers).
    wall_time: float


def run_seed(
    dfg: "DFG",
    cgra: "CGRA",
    config: "MapperConfig",
    first_ii: int,
    budget: float | None = None,
) -> SeedResult | None:
    """Race the configured heuristic mappers inside one wall budget.

    Mappers run sequentially, each given what remains of the budget; a
    later mapper only searches *below* the best II found so far (its II cap
    is ``best.ii - 1``), and the pre-pass stops early once a seed reaches
    ``first_ii`` — the MII is a lower bound, nothing can beat it.  Returns
    ``None`` when no mapper produces a validated mapping within budget,
    in which case the mapper falls back to its exact unseeded walk.
    """
    total_budget = config.seed_time_budget if budget is None else budget
    if total_budget <= 0:
        return None
    start = time.perf_counter()
    best: SeedResult | None = None
    for name in config.seed_mappers:
        remaining = total_budget - (time.perf_counter() - start)
        if remaining <= 0:
            break
        max_ii = config.max_ii if best is None else best.ii - 1
        if max_ii < first_ii:
            break
        try:
            outcome = run_budgeted(
                name, dfg, cgra,
                time_budget=remaining,
                start_ii=first_ii,
                max_ii=max_ii,
                run_register_allocation=config.run_register_allocation,
                neighbour_register_file_access=(
                    config.neighbour_register_file_access
                ),
                enforce_output_register=config.enforce_output_register,
            )
        except (ValueError, ReproError):
            continue
        if not outcome.success or outcome.mapping is None:
            continue
        if not replay_validated(
            outcome.mapping,
            outcome.register_allocation,
            enforce_output_register=config.enforce_output_register,
            neighbour_register_file_access=(
                config.neighbour_register_file_access
            ),
        ):
            continue
        if best is None or outcome.ii < best.ii:
            best = SeedResult(
                ii=outcome.ii,
                mapping=outcome.mapping,
                allocation=outcome.register_allocation,
                mapper_name=name,
                wall_time=0.0,
            )
        if best.ii <= first_ii:
            break
    if best is not None:
        best.wall_time = time.perf_counter() - start
    return best
