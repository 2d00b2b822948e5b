"""Identity suite: the native core and the Python engine search identically.

``repro/sat/_cdcl.c`` ports :class:`CDCLSolver`'s search loop; the port is
only allowed to be faster.  Every test here drives both engines through the
same call sequence and requires equal results: status, model, every
:class:`SolverStats` counter except wall time, ``num_learned`` and the DRAT
trace — and, for whole mapper runs, the mapping JSON and every per-attempt
counter.  The Python engine is the oracle.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat import native
from repro.sat.cnf import CNF
from repro.sat.drat import ProofLogger, check_proof
from repro.sat.solver import SOLVER_VERSION, CDCLSolver, make_solver

pytestmark = pytest.mark.skipif(
    native.load() is None,
    reason=f"native core unavailable: {native.status().reason}",
)


@pytest.fixture
def python_engine(monkeypatch):
    """Make :func:`make_solver` hand out the Python engine."""
    monkeypatch.setattr(native, "load", lambda: None)


def _stats(result) -> dict:
    counters = dataclasses.asdict(result.stats)
    counters.pop("solve_time")
    return counters


class _Run:
    """One engine driven through a call sequence, recording every answer."""

    def __init__(self, engine, **params) -> None:
        self.proof = ProofLogger()
        self.solver = engine(proof=self.proof, **params)
        self.log: list = []

    def apply(self, op) -> None:
        kind = op[0]
        solver = self.solver
        if kind == "vars":
            self.log.append(("vars", solver.new_vars(op[1])))
        elif kind == "clause":
            self.log.append(("clause", solver.add_clause(op[1])))
        elif kind == "clauses":
            _, clauses, trusted, guard = op
            self.log.append(
                ("clauses", solver.add_clauses(clauses, trusted=trusted, guard=guard))
            )
        else:
            _, assumptions, conflict_limit, project = op
            model_vars = range(1, solver.num_vars + 1, 2) if project else None
            result = solver.solve(
                assumptions=assumptions, conflict_limit=conflict_limit,
                model_vars=model_vars,
            )
            self.log.append(("solve", result.status, result.model, _stats(result)))
        self.log.append((solver.num_vars, solver.num_learned, solver.num_clauses,
                         solver.clauses_added, solver.arena_bytes))


def _assert_identical(ops, **params) -> None:
    python, ported = _Run(CDCLSolver, **params), _Run(native.NativeCDCLSolver, **params)
    for op in ops:
        python.apply(op)
        ported.apply(op)
        assert ported.log == python.log, f"diverged at {op[0]}"
    assert ported.proof.text() == python.proof.text()
    assert ported.proof.digest() == python.proof.digest()


@st.composite
def _sequences(draw):
    """Incremental call sequences shaped like the mapper's.

    Constraint groups hang off fresh selector variables (guard-tailed
    clauses, solved under the selector, then retired with the negated
    selector plus pins); ungrouped batches arrive trusted or untrusted,
    clause by clause or in bulk; solves carry assumptions, conflict
    budgets and model projections.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num_vars = draw(st.integers(3, 40))
    ops: list = [("vars", num_vars)]
    live: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        width = rng.choice((2, 3, 4, 6))
        clauses = []
        for _ in range(rng.randint(1, 4 * num_vars)):
            chosen = rng.sample(range(1, num_vars + 1), min(rng.randint(1, width), num_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        choice = rng.random()
        if choice < 0.35:
            # A guarded group: a fresh selector, guard-tailed clauses.
            num_vars += 1
            selector = num_vars
            ops.append(("vars", 1))
            guard = -selector
            ops.append(("clauses", [c + [guard] for c in clauses], True, guard))
            live.append(selector)
        elif choice < 0.5:
            ops.extend(("clause", clause) for clause in clauses[:6])
        else:
            messy = [c + [c[0]] if rng.random() < 0.2 else c for c in clauses]
            trusted = rng.random() < 0.5
            ops.append(("clauses", clauses if trusted else messy, trusted, None))
        assumptions = [v if rng.random() < 0.5 else -v for v in
                       rng.sample(range(1, num_vars + 1), rng.randint(0, 3))]
        assumptions += live[-1:]
        ops.append(("solve", assumptions, rng.choice((None, None, 1, 25, 200)),
                    rng.random() < 0.5))
        if live and rng.random() < 0.5:
            # Group retirement, as the mapper does it: one bulk batch.
            selector = live.pop()
            pins = [[-v] for v in range(selector + 1, num_vars + 1)]
            ops.append(("clauses", [[-selector]] + pins, False, None))
    return ops


_PARAMS = st.fixed_dictionaries({
    "learned_limit_base": st.sampled_from((4000, 12, 40)),
    "restart_base": st.sampled_from((100, 3)),
    # Fast decay reaches the 1e100 / 1e20 activity rescales within a few
    # hundred conflicts.
    "var_decay": st.sampled_from((0.95, 0.5)),
    "clause_decay": st.sampled_from((0.999, 0.6)),
    "initial_phase": st.booleans(),
})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_sequences(), params=_PARAMS)
def test_incremental_sequences_are_identical(ops, params):
    _assert_identical(ops, **params)


@pytest.mark.parametrize("seed", range(6))
def test_hard_instances_are_identical(seed):
    """Thousands of conflicts: reductions, compaction, rescales, restarts."""
    rng = random.Random(seed)
    num_vars = 60 + 10 * seed
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(int(4.26 * num_vars))
    ] + [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 5)]
        for _ in range(num_vars)
    ]
    ops = [("clauses", clauses, False, None),
           ("solve", [1, -2], 300, True),
           ("solve", [], None, False),
           ("solve", [3], None, True)]
    _assert_identical(ops, learned_limit_base=60, var_decay=0.8)


@pytest.mark.parametrize("params", [
    {"learned_limit_base": 50},
    # Fast decay: var_inc doubles per conflict, so the 1e100 activity
    # rescale (and the 1e20 clause-activity one) fire many times.
    {"learned_limit_base": 50, "var_decay": 0.5, "clause_decay": 0.5},
])
def test_pigeonhole_proof_is_identical_and_checks(params):
    cnf = CNF()
    var = {(p, h): cnf.new_var() for p in range(7) for h in range(6)}
    for p in range(7):
        cnf.add_clause([var[p, h] for h in range(6)])
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    results = []
    for engine in (CDCLSolver, native.NativeCDCLSolver):
        proof = ProofLogger()
        result = engine(proof=proof, **params).solve(cnf)
        results.append((result.status, _stats(result), proof.text()))
    assert results[0] == results[1]
    assert results[1][0] == "UNSAT"
    assert results[1][1]["conflicts"] > 1000
    assert check_proof(cnf, results[1][2]).ok


def test_one_shot_cnf_reset_and_hints_are_identical():
    rng = random.Random(7)
    hints = {v: rng.random() for v in range(1, 30, 3)}
    phases = {v: rng.random() < 0.5 for v in range(2, 30, 4)}
    formulas = []
    for round_ in range(3):
        cnf = CNF(num_vars=30 + round_)
        for _ in range(110 + 10 * round_):
            cnf.add_clause([v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, 31), 3)])
        formulas.append(cnf)
    logs = []
    for engine in (CDCLSolver, native.NativeCDCLSolver):
        solver = engine(activity_hints=hints, phase_hints=phases)
        log = []
        for cnf in formulas:
            # Passing a CNF resets the solver; hints apply again.
            result = solver.solve(cnf, assumptions=[2])
            log.append((result.status, result.model, _stats(result),
                        solver.num_vars, solver.clauses_added))
        logs.append(log)
    assert logs[0] == logs[1]


def test_zero_literal_rejected_like_python():
    for engine in (CDCLSolver, native.NativeCDCLSolver):
        solver = engine()
        with pytest.raises(ValueError):
            solver.add_clauses([[1, 2], [3, 0]])
        with pytest.raises(ValueError):
            solver.add_clause([0])
        assert solver.num_vars == 3
        assert solver.clauses_added == 1


def test_variables_beyond_the_core_range_are_rejected():
    # Ternary reason codes pack literals into 30 bits; the wrapper refuses
    # larger variables before any pointer reaches the core.
    solver = native.NativeCDCLSolver()
    for call in (lambda: solver.add_clause([1, native.MAX_VARS]),
                 lambda: solver.add_clauses([[-native.MAX_VARS]], trusted=True),
                 lambda: solver.solve(assumptions=[native.MAX_VARS])):
        with pytest.raises(ValueError):
            call()
    assert solver.num_vars == 0


def test_solver_version_unchanged():
    # The port changes no result, so cached mappings stay valid.
    assert SOLVER_VERSION == "flat-arena-1"


def test_factory_falls_back_to_python(python_engine):
    assert type(make_solver()) is CDCLSolver


def test_factory_returns_native_core():
    assert type(make_solver()) is native.NativeCDCLSolver


# ----------------------------------------------------------------------
# Whole mapper runs
# ----------------------------------------------------------------------
_KERNEL_CASES = [
    ("srand", 2, {}), ("basicmath", 3, {}), ("stringsearch", 2, {}),
    ("nw", 3, {}), ("gsm", 2, {}), ("bitcount", 3, {}), ("sha", 3, {}),
    ("patricia", 2, {}), ("hotspot", 3, {}),
    ("gsm", 2, {"incremental": False}),
    ("stringsearch", 2, {"preprocess": True}),
]


def _attempt_counters(outcome) -> list[dict]:
    rows = []
    for attempt in outcome.attempts:
        row = dataclasses.asdict(attempt)
        for name in list(row):
            if name.endswith("_time"):
                row.pop(name)
        rows.append(row)
    return rows


def _map(kernel, size, overrides):
    config = MapperConfig(timeout=120, random_seed=0, **overrides)
    outcome = SatMapItMapper(config).map(get_kernel(kernel), CGRA.square(size))
    assert outcome.success
    return outcome.ii, outcome.mapping.to_json(), _attempt_counters(outcome)


@pytest.mark.parametrize("kernel,size,overrides", _KERNEL_CASES)
def test_mapper_runs_are_identical(kernel, size, overrides, monkeypatch):
    ported = _map(kernel, size, overrides)
    monkeypatch.setattr(native, "load", lambda: None)
    assert _map(kernel, size, overrides) == ported
