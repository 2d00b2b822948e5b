"""Ablation — SAT solver features on mapping formulas (DESIGN.md §5).

Compares the production CDCL configuration against degraded variants (no
symmetry breaking, no restarts, the reference DPLL solver) on one mapping
instance, recording solve time and conflicts.  All variants must agree on
satisfiability.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.encoder import EncoderConfig, MappingEncoder
from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
from repro.dfg.graph import paper_running_example
from repro.sat.dpll import DPLLSolver
from repro.sat.solver import make_solver


def _instance(symmetry_breaking: bool = True):
    dfg = paper_running_example()
    cgra = CGRA.square(2)
    kms = KernelMobilitySchedule.build(MobilitySchedule.build(dfg), 3)
    return MappingEncoder(
        dfg, cgra, kms, EncoderConfig(symmetry_breaking=symmetry_breaking)
    ).encode()


def test_cdcl_default(benchmark):
    encoding = _instance()
    result = benchmark.pedantic(
        make_solver().solve, args=(encoding.cnf,), rounds=1, iterations=1
    )
    benchmark.extra_info["conflicts"] = result.stats.conflicts
    assert result.is_sat


def test_cdcl_without_symmetry_breaking(benchmark):
    encoding = _instance(symmetry_breaking=False)
    result = benchmark.pedantic(
        make_solver().solve, args=(encoding.cnf,), rounds=1, iterations=1
    )
    benchmark.extra_info["conflicts"] = result.stats.conflicts
    assert result.is_sat


def test_cdcl_without_restarts(benchmark):
    encoding = _instance()
    solver = make_solver(restart_base=10**9)
    result = benchmark.pedantic(solver.solve, args=(encoding.cnf,), rounds=1, iterations=1)
    benchmark.extra_info["conflicts"] = result.stats.conflicts
    assert result.is_sat


def test_cdcl_constructive_phase(benchmark):
    encoding = _instance()
    solver = make_solver(initial_phase=True)
    result = benchmark.pedantic(solver.solve, args=(encoding.cnf,), rounds=1, iterations=1)
    benchmark.extra_info["conflicts"] = result.stats.conflicts
    assert result.is_sat


@pytest.mark.parametrize("dummy", ["dpll"])
def test_reference_dpll(benchmark, dummy):
    encoding = _instance()
    model = benchmark.pedantic(
        DPLLSolver().solve, args=(encoding.cnf,), rounds=1, iterations=1
    )
    assert model is not None
