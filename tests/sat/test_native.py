"""Differential suite: the native CDCL core against the DPLL oracle.

Every incremental call sequence below is replayed into the native core and,
clause for clause, into a plain accumulated :class:`CNF`.  At every solve
the core must agree with the easy-to-audit DPLL oracle on the accumulated
formula under the same assumptions; every SAT model must satisfy the
clauses (a projected model must extend to one); and every UNSAT answer,
made with a DRAT proof logger attached, must pass the bundled forward
checker (:func:`repro.sat.drat.check_proof`).

The search itself is deterministic, so :class:`SolverStats` counters on a
few fixed formulas, and whole mapper runs, are pinned as recorded numbers.
"""

from __future__ import annotations

import dataclasses
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat import backend
from repro.sat.backend import CDCLBackend
from repro.sat.cnf import CNF, clause_slices, flatten
from repro.sat.dpll import DPLLSolver
from repro.sat.drat import ProofLogger, check_proof
from repro.sat.solver import SOLVER_VERSION


def _stats(result) -> dict:
    counters = dataclasses.asdict(result.stats)
    counters.pop("solve_time")
    return counters


class _Differential:
    """The native core driven through a call sequence next to a plain CNF
    holding every clause it was given, checked at each solve."""

    def __init__(self, **params) -> None:
        self.proof = ProofLogger()
        self.solver = CDCLBackend(proof=self.proof, **params)
        self.cnf = CNF()
        self.verdicts: list[str] = []

    def apply(self, op) -> None:
        kind = op[0]
        solver, cnf = self.solver, self.cnf
        if kind == "vars":
            got = solver.new_vars(op[1])
            assert got == cnf.new_vars(op[1])
        elif kind == "clause":
            solver.add_clause(op[1])
            cnf.add_clause(op[1])
        elif kind == "clauses":
            _, clauses, trusted, guard = op
            literals, lengths = flatten(clauses)
            solver.add_clauses(literals, lengths, trusted=trusted, guard=guard)
            for clause in clause_slices(literals, lengths):
                cnf.add_clause(clause)
        else:
            _, assumptions, conflict_limit, project = op
            self._check_solve(assumptions, conflict_limit, project)

    def _check_solve(self, assumptions, conflict_limit, project) -> None:
        solver, cnf = self.solver, self.cnf
        model_vars = range(1, solver.num_vars + 1, 2) if project else None
        result = solver.solve(assumptions=assumptions, conflict_limit=conflict_limit,
                              model_vars=model_vars)
        self.verdicts.append(result.status)
        if result.status == "UNKNOWN":
            assert conflict_limit is not None
            return
        oracle = DPLLSolver().solve(cnf, assumptions=assumptions)
        assert result.is_sat == (oracle is not None)
        if result.is_unsat:
            checked = check_proof(cnf.clauses, self.proof.text(), assumptions)
            assert checked.ok, checked.reason
            return
        if project:
            assert set(result.model) == set(model_vars)
            # The projection extends to a model of the whole formula.
            pinned = [var if value else -var for var, value in result.model.items()]
            assert DPLLSolver().solve(cnf, assumptions=[*assumptions, *pinned])
        else:
            assert cnf.evaluate(result.model)
            assert all(result.model[abs(lit)] == (lit > 0) for lit in assumptions)


@st.composite
def _sequences(draw):
    """Incremental call sequences over guarded constraint groups.

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
            # Group retirement: the negated selector plus pins, one batch.
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
def test_incremental_sequences_agree_with_the_oracle(ops, params):
    run = _Differential(**params)
    for op in ops:
        run.apply(op)


def _hard_instance(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    num_vars = 60 + 10 * seed
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(int(4.26 * num_vars))
    ] + [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 5)]
        for _ in range(num_vars)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_hard_instances_agree_with_the_oracle(seed):
    """Hundreds of conflicts under tiny learned limits: reductions,
    compaction, rescales, restarts, between incremental calls."""
    run = _Differential(learned_limit_base=60, var_decay=0.8)
    for op in [("clauses", _hard_instance(seed), False, None),
               ("solve", [1, -2], 300, True),
               ("solve", [], None, False),
               ("solve", [3], None, True)]:
        run.apply(op)
    assert "UNKNOWN" not in run.verdicts[1:]


def _pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF()
    var = {(p, h): cnf.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


#: ``SolverStats`` of fixed formulas, recorded when the native core was
#: still checked call for call against a Python twin of its search.
_PINNED_STATS = {
    "pigeonhole-7-6": ("UNSAT", dict(
        decisions=919, propagations=9350, conflicts=754, restarts=5,
        learned_clauses=748, deleted_clauses=0, max_decision_level=17,
        binary_propagations=6311, blocker_skips=58833, arena_bytes=67912)),
    "pigeonhole-7-6-fast-decay": ("UNSAT", dict(
        decisions=1867, propagations=18030, conflicts=1432, restarts=9,
        learned_clauses=1424, deleted_clauses=1106, max_decision_level=27,
        binary_propagations=13197, blocker_skips=49462, arena_bytes=26744)),
    "random-0-call-0": ("UNSAT", dict(
        decisions=65, propagations=847, conflicts=55, restarts=0,
        learned_clauses=55, deleted_clauses=0, max_decision_level=14,
        binary_propagations=1058, blocker_skips=301, arena_bytes=11096)),
    "random-0-call-1": ("UNSAT", dict(
        decisions=107, propagations=1508, conflicts=94, restarts=0,
        learned_clauses=88, deleted_clauses=32, max_decision_level=10,
        binary_propagations=1779, blocker_skips=735, arena_bytes=12816)),
    "random-0-call-2": ("UNSAT", dict(
        decisions=0, propagations=0, conflicts=0, restarts=0, learned_clauses=0,
        deleted_clauses=0, max_decision_level=0, binary_propagations=0,
        blocker_skips=0, arena_bytes=12816)),
    "random-3-call-0": ("UNSAT", dict(
        decisions=240, propagations=4152, conflicts=206, restarts=2,
        learned_clauses=206, deleted_clauses=74, max_decision_level=14,
        binary_propagations=5014, blocker_skips=1945, arena_bytes=19264)),
    "random-3-call-1": ("UNSAT", dict(
        decisions=154, propagations=2819, conflicts=144, restarts=1,
        learned_clauses=136, deleted_clauses=164, max_decision_level=10,
        binary_propagations=3567, blocker_skips=1281, arena_bytes=16168)),
    "random-3-call-2": ("UNSAT", dict(
        decisions=0, propagations=0, conflicts=0, restarts=0, learned_clauses=0,
        deleted_clauses=0, max_decision_level=0, binary_propagations=0,
        blocker_skips=0, arena_bytes=16168)),
    # Recorded later, from the solver before its warm-start hints were
    # deleted: an unhinted solver reset by each ``solve(cnf)``.
    "reset-0": ("SAT", dict(
        decisions=25, propagations=158, conflicts=16, restarts=0,
        learned_clauses=16, deleted_clauses=0, max_decision_level=6,
        binary_propagations=167, blocker_skips=9, arena_bytes=2984)),
    "reset-1": ("SAT", dict(
        decisions=9, propagations=31, conflicts=0, restarts=0,
        learned_clauses=0, deleted_clauses=0, max_decision_level=9,
        binary_propagations=22, blocker_skips=0, arena_bytes=2880)),
    "reset-2": ("SAT", dict(
        decisions=11, propagations=37, conflicts=1, restarts=0, learned_clauses=1,
        deleted_clauses=0, max_decision_level=8, binary_propagations=27,
        blocker_skips=0, arena_bytes=3144)),
}


@pytest.mark.parametrize("params", [
    {"learned_limit_base": 50},
    # Fast decay: var_inc doubles per conflict, so the 1e100 activity
    # rescale (and the 1e20 clause-activity one) fire many times.
    {"learned_limit_base": 50, "var_decay": 0.5, "clause_decay": 0.5},
])
def test_pigeonhole_proof_checks(params):
    cnf = _pigeonhole(7, 6)
    proof = ProofLogger()
    result = CDCLBackend(proof=proof, **params).solve(cnf)
    assert result.status == "UNSAT"
    assert result.stats.conflicts > 1000
    assert check_proof(cnf.clauses, proof.text()).ok


def _pinned_runs() -> dict:
    """The recorded runs: name -> (status, stats) of each fixed formula."""
    runs = {}
    for name, params in (("pigeonhole-7-6", {}),
                         ("pigeonhole-7-6-fast-decay",
                          {"learned_limit_base": 50, "var_decay": 0.5,
                           "clause_decay": 0.5})):
        result = CDCLBackend(**params).solve(_pigeonhole(7, 6))
        runs[name] = (result.status, _stats(result))
    for seed in (0, 3):
        solver = CDCLBackend(learned_limit_base=60, var_decay=0.8)
        solver.add_clauses(*flatten(_hard_instance(seed)))
        for index, assumptions in enumerate(([1, -2], [], [3])):
            result = solver.solve(assumptions=assumptions)
            runs[f"random-{seed}-call-{index}"] = (result.status, _stats(result))
    rng = random.Random(7)
    solver = CDCLBackend()
    for round_ in range(3):
        cnf = CNF(num_vars=30 + round_)
        for _ in range(110 + 10 * round_):
            cnf.add_clause([v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, 31), 3)])
        # Passing a CNF resets the solver.
        result = solver.solve(cnf, assumptions=[2])
        runs[f"reset-{round_}"] = (result.status, _stats(result))
    return runs


def test_solver_counters_are_pinned():
    assert _pinned_runs() == _PINNED_STATS


def test_zero_literal_rejected():
    solver = CDCLBackend()
    with pytest.raises(ValueError):
        solver.add_clauses(*flatten([[1, 2], [3, 0]]))
    with pytest.raises(ValueError):
        solver.add_clause([0])
    assert solver.num_vars == 3
    assert solver.clauses_added == 1


@pytest.mark.parametrize("guard", [None, -4])
@pytest.mark.parametrize("lengths", [[2], [2, 2], [4, -1]])
def test_flat_batch_lengths_are_checked_before_ingest(lengths, guard):
    solver = CDCLBackend()
    with pytest.raises(ValueError, match="lengths"):
        solver.add_clauses(array("i", [1, 2, -3]), array("i", lengths), guard=guard)
    assert solver.num_vars == 0
    assert solver.clauses_added == 0


def test_variables_beyond_the_core_range_are_rejected():
    # Ternary reason codes pack literals into 30 bits; the wrapper refuses
    # larger variables before any pointer reaches the core.
    solver = CDCLBackend()
    for call in (lambda: solver.add_clause([1, backend.MAX_VARS]),
                 lambda: solver.add_clauses(*flatten([[-backend.MAX_VARS]]),
                                            trusted=True),
                 lambda: solver.solve(assumptions=[backend.MAX_VARS])):
        with pytest.raises(ValueError):
            call()
    assert solver.num_vars == 0


def test_solver_version_unchanged():
    # Cached mappings made by earlier versions of the core stay valid.
    assert SOLVER_VERSION == "flat-arena-1"


# ----------------------------------------------------------------------
# Whole mapper runs
# ----------------------------------------------------------------------
#: ``(II, attempts, conflicts, propagations)`` of each default-config run,
#: recorded when the native core was still checked against its Python twin.
_PINNED_RUNS = {
    ("srand", 2): (4, 1, 2, 467), ("basicmath", 3): (2, 1, 4, 2804),
    ("stringsearch", 2): (4, 1, 0, 293), ("nw", 3): (3, 1, 1, 1072),
    ("gsm", 2): (7, 2, 329, 40102), ("bitcount", 3): (5, 5, 281, 113068),
    ("sha", 3): (5, 1, 36, 16221), ("patricia", 2): (10, 1, 0, 1569),
    ("hotspot", 3): (5, 1, 4, 3229),
}


def _map(kernel, size):
    config = MapperConfig(timeout=120, random_seed=0)
    outcome = SatMapItMapper(config).map(get_kernel(kernel), CGRA.square(size))
    assert outcome.success
    assert not outcome.mapping.violations()
    return (outcome.ii, len(outcome.attempts),
            sum(a.conflicts for a in outcome.attempts),
            sum(a.propagations for a in outcome.attempts))


@pytest.mark.parametrize("kernel,size", list(_PINNED_RUNS))
def test_mapper_runs_are_pinned(kernel, size):
    assert _map(kernel, size) == _PINNED_RUNS[kernel, size]
