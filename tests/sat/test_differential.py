"""Differential fuzzing of the SAT stack.

Seeded random CNF instances (varying variable counts, clause counts and
clause widths) are decided two ways — CDCL and the reference DPLL oracle —
and the verdicts must agree; every SAT model must satisfy the clauses.  A
second family drives the persistent :class:`CDCLBackend` with clause
batches and assumptions, cross-checked against DPLL on the accumulated
formula.
"""

from __future__ import annotations

import random

import pytest

from repro.sat.backend import CDCLBackend
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver


def random_cnf(
    rng: random.Random,
    min_vars: int = 4,
    max_vars: int = 12,
    max_width: int = 3,
    density: tuple[float, float] = (1.0, 4.2),
) -> CNF:
    """One seeded random CNF with mixed clause widths.

    Densities around the 3-SAT phase transition (~4.2 clauses/var) keep the
    SAT/UNSAT split roughly balanced so both verdicts are exercised.
    """
    num_vars = rng.randint(min_vars, max_vars)
    num_clauses = max(1, int(num_vars * rng.uniform(*density)))
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        literals = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            literals.append(var if rng.random() < 0.5 else -var)
        cnf.add_clause(literals)
    return cnf


def _dpll_status(cnf: CNF, assumptions=()) -> str:
    model = DPLLSolver().solve(cnf, assumptions=assumptions)
    return "SAT" if model is not None else "UNSAT"


def _check_instance(seed: int) -> None:
    rng = random.Random(seed)
    cnf = random_cnf(rng)
    plain = CDCLBackend().solve(cnf)
    oracle = _dpll_status(cnf)
    assert plain.status == oracle, f"seed {seed}: CDCL {plain.status} vs DPLL {oracle}"
    if plain.is_sat:
        assert cnf.evaluate(plain.model), f"seed {seed}: CDCL model invalid"


# 200 seeded instances, split into chunks so a failure names its block and
# the suite stays granular under -x.
@pytest.mark.parametrize("block", range(8))
def test_differential_verdicts_and_models(block):
    for seed in range(block * 25, (block + 1) * 25):
        _check_instance(seed)


@pytest.mark.parametrize("block", range(4))
def test_differential_incremental_backend(block):
    """Batched clauses + assumptions through the persistent backend."""
    for seed in range(block * 25, (block + 1) * 25):
        rng = random.Random(90_000 + seed)
        cnf = random_cnf(rng, min_vars=5, max_vars=11)
        clauses = [list(clause) for clause in cnf.clauses]
        rng.shuffle(clauses)
        half = len(clauses) // 2
        batches = [clauses[:half], clauses[half:]]
        assume_pool = rng.sample(
            range(1, cnf.num_vars + 1), k=min(3, cnf.num_vars)
        )

        backend = CDCLBackend()
        for _ in range(cnf.num_vars):
            backend.new_var()

        accumulated = CNF(num_vars=cnf.num_vars)
        for batch in batches:
            for clause in batch:
                backend.add_clause(clause)
                accumulated.add_clause(clause)
            count = rng.randint(0, len(assume_pool))
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in assume_pool[:count]
            ]
            result = backend.solve(assumptions=assumptions)
            oracle = _dpll_status(accumulated, assumptions)
            assert result.status == oracle, (
                f"seed {seed}: backend {result.status} vs DPLL {oracle} "
                f"under {assumptions}"
            )
            if result.is_sat:
                model = result.model
                for lit in assumptions:
                    assert model.get(abs(lit), False) == (lit > 0), (
                        f"seed {seed}: assumption {lit} violated"
                    )
                assert accumulated.evaluate(model), (
                    f"seed {seed}: incremental model invalid"
                )


@pytest.mark.slow
@pytest.mark.parametrize("block", range(8))
def test_differential_extended(block):
    """Wider and denser instances; excluded from the default (tier-1) run."""
    for seed in range(500_000 + block * 50, 500_000 + (block + 1) * 50):
        rng = random.Random(seed)
        cnf = random_cnf(rng, min_vars=8, max_vars=18, max_width=5)
        plain = CDCLBackend().solve(cnf)
        oracle = _dpll_status(cnf)
        assert plain.status == oracle, seed
        if plain.is_sat:
            assert cnf.evaluate(plain.model), seed
