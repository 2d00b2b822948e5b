"""Tests of the CDCL core's clause stores, driven through its public API.

Covers binary and ternary implication-list propagation, guard-aware
ternary routing, learned-clause detachment and arena compaction, the bulk
``add_clauses`` ingest (trusted and untrusted), SAT-model projection and
the mapper's guarded-group lifecycle against a DPLL oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.sat.cnf import CNF, flatten
from repro.sat.dpll import DPLLSolver
from repro.sat.solver import make_solver


def _pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


def _random_clauses(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestBinaryImplicationLists:
    def test_binary_clause_propagates_without_watches(self):
        solver = make_solver()
        solver.ensure_vars(2)
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.is_sat
        assert result.model[2] is True
        # The implication was served by the binary lists, not the watches.
        assert result.stats.binary_propagations >= 1

    def test_binary_conflict_detected(self):
        solver = make_solver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2])
        solver.add_clause([1, -2])
        result = solver.solve(assumptions=[-1])
        assert result.is_unsat

    def test_binary_chain_needs_no_decisions(self):
        # 1 -> 2 -> 3 -> ... -> 10, with 1 forced: pure implication-list work.
        cnf = CNF(clauses=[[1]] + [[-i, i + 1] for i in range(1, 10)])
        result = make_solver().solve(cnf)
        assert result.is_sat
        assert all(result.model[i] for i in range(1, 11))
        assert result.stats.decisions == 0


class TestTernaryImplicationLists:
    def test_ternary_unit_implication_both_orders(self):
        for assumptions in ([-1, -2], [-2, -1]):
            solver = make_solver()
            solver.ensure_vars(3)
            solver.add_clause([1, 2, 3])
            result = solver.solve(assumptions=assumptions)
            assert result.is_sat
            assert result.model[3] is True

    def test_ternary_conflict(self):
        solver = make_solver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2, 3])
        solver.add_clause([1, 2, -3])
        result = solver.solve(assumptions=[-1, -2])
        assert result.is_unsat

    def test_ternary_reason_supports_conflict_analysis(self):
        # The analyzer must resolve through ternary (bit-packed) reasons.
        cnf = CNF(clauses=[
            [1, 2, 3], [1, 2, -3], [1, -2, 3], [1, -2, -3],
            [-1, 2, 3], [-1, 2, -3], [-1, -2, 3], [-1, -2, -3],
        ])
        result = make_solver().solve(cnf)
        assert result.is_unsat


class TestGuardedTernary:
    def test_guarded_batch_propagates_under_assumption(self):
        solver = make_solver()
        selector = solver.new_var()
        a, b = solver.new_var(), solver.new_var()
        # (a | b | -selector): binary-effective while selector is assumed.
        solver.add_clauses(*flatten([[a, b, -selector]]), trusted=True,
                           guard=-selector)
        result = solver.solve(assumptions=[selector, -a])
        assert result.is_sat
        assert result.model[b] is True

    def test_guarded_group_retires_cleanly(self):
        solver = make_solver()
        selector = solver.new_var()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clauses(
            *flatten([[a, b, -selector], [-a, b, -selector],
                      [a, -b, -selector], [-a, -b, -selector]]),
            trusted=True,
            guard=-selector,
        )
        # UNSAT while the group is active...
        assert solver.solve(assumptions=[selector]).is_unsat
        # ...but retiring the group (root unit + pins) leaves a SAT database.
        assert solver.add_clauses(*flatten([[-selector], [-a], [-b]]))
        result = solver.solve()
        assert result.is_sat
        assert result.model[selector] is False

    def test_guarded_routing_matches_plain_semantics(self):
        rng = random.Random(7)
        for trial in range(30):
            num_vars = rng.randint(3, 8)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 20), width=2)
            plain = make_solver()
            guarded = make_solver()
            selector = plain.new_var()
            assert guarded.new_var() == selector
            plain.ensure_vars(num_vars + 1)
            guarded.ensure_vars(num_vars + 1)
            shifted = [[lit + 1 if lit > 0 else lit - 1 for lit in clause]
                       for clause in clauses]
            plain.add_clauses(*flatten([c + [-selector] for c in shifted]))
            guarded.add_clauses(
                *flatten([c + [-selector] for c in shifted]),
                trusted=True,
                guard=-selector,
            )
            expected = plain.solve(assumptions=[selector])
            actual = guarded.solve(assumptions=[selector])
            assert expected.status == actual.status, f"trial {trial}"


class TestReductionAndCompaction:
    def test_detach_and_compaction_keep_the_verdict(self):
        # A tiny learned limit forces many _reduce_learned rounds (swap-
        # remove detach) and arena compactions during one hard solve.
        solver = make_solver(learned_limit_base=30)
        result = solver.solve(_pigeonhole(7, 6))
        assert result.is_unsat
        assert result.stats.deleted_clauses > 0

    def test_compaction_preserves_verdicts_incrementally(self):
        solver = make_solver(learned_limit_base=25)
        cnf = _pigeonhole(6, 5)
        solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        extra = solver.new_var()
        assert solver.solve(assumptions=[extra]).is_unsat
        # The database itself stays usable after reduction/compaction.
        assert solver.solve(assumptions=[-extra]).is_unsat


class TestBulkAddClauses:
    def test_bulk_matches_sequential_adds(self):
        rng = random.Random(11)
        for trial in range(40):
            num_vars = rng.randint(2, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(2, 25))
            one = make_solver()
            one.ensure_vars(num_vars)
            ok_one = all(one.add_clause(c) for c in clauses)
            two = make_solver()
            two.ensure_vars(num_vars)
            ok_two = two.add_clauses(*flatten(clauses))
            assert ok_one == ok_two, f"trial {trial}"
            if ok_one:
                assert one.solve().status == two.solve().status

    def test_unit_batch_single_propagation_sweep(self):
        solver = make_solver()
        solver.ensure_vars(50)
        assert solver.add_clauses(*flatten([[-v] for v in range(1, 51)]))
        result = solver.solve()
        assert result.is_sat
        assert all(result.model[v] is False for v in range(1, 51))

    def test_bulk_detects_root_conflict(self):
        solver = make_solver()
        solver.ensure_vars(2)
        assert not solver.add_clauses(*flatten([[1], [2], [-1]]))
        assert solver.solve().is_unsat

    def test_trusted_matches_untrusted(self):
        rng = random.Random(23)
        for trial in range(30):
            num_vars = rng.randint(2, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(2, 25))
            plain = make_solver()
            plain.ensure_vars(num_vars)
            ok_plain = plain.add_clauses(*flatten(clauses))
            trusted = make_solver()
            trusted.ensure_vars(num_vars)
            ok_trusted = trusted.add_clauses(*flatten(clauses), trusted=True)
            assert ok_plain == ok_trusted, f"trial {trial}"
            if ok_plain:
                assert plain.solve().status == trusted.solve().status

    def test_clauses_added_counter(self):
        solver = make_solver()
        solver.ensure_vars(3)
        solver.add_clauses(*flatten([[1, 2], [2, 3], [1, 2, 3]]))
        assert solver.clauses_added == 3


class TestModelProjection:
    def test_projection_subset_of_full_model(self):
        cnf = CNF(clauses=[[1, 2, 3], [-1, 4], [2, -4, 5]])
        full = make_solver().solve(cnf)
        projected = make_solver().solve(cnf, model_vars=[2, 4])
        assert projected.is_sat
        assert set(projected.model) == {2, 4}
        for var, value in projected.model.items():
            assert full.model[var] == value

    def test_projection_ignores_unknown_vars(self):
        result = make_solver().solve(CNF(clauses=[[1]]), model_vars=[1, 99])
        assert result.model == {1: True}

    def test_incremental_projection(self):
        solver = make_solver()
        solver.ensure_vars(4)
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1], model_vars=[2])
        assert result.model == {2: True}


class TestStatsCounters:
    def test_blocker_skips_and_arena_bytes_populated(self):
        solver = make_solver()
        result = solver.solve(_pigeonhole(6, 5))
        assert result.is_unsat
        assert result.stats.arena_bytes >= 0
        assert solver.arena_bytes == result.stats.arena_bytes

    def test_cross_check_arena_vs_dpll_on_mixed_widths(self):
        rng = random.Random(5)
        for trial in range(25):
            num_vars = rng.randint(3, 9)
            cnf = CNF(num_vars=num_vars)
            for clause in _random_clauses(rng, num_vars, rng.randint(4, 30),
                                          width=5):
                cnf.add_clause(clause)
            arena = make_solver().solve(cnf)
            oracle = DPLLSolver().solve(cnf)
            assert arena.is_sat == (oracle is not None), f"trial {trial}"
            if arena.is_sat:
                assert cnf.evaluate(arena.model)


class TestGuardedGroupLifecycle:
    """Fuzz the guarded-group lifecycle: groups solved under an assumption,
    then retired with a root unit plus variable pins — the incremental
    verdicts must match a DPLL oracle on the active group."""

    def test_sequential_groups_match_dpll(self):
        rng = random.Random(42)
        for trial in range(15):
            solver = make_solver()
            for group in range(3):
                selector = solver.new_var()
                num_vars = rng.randint(3, 6)
                base = solver.num_vars
                for _ in range(num_vars):
                    solver.new_var()
                clauses = []
                for _ in range(rng.randint(3, 18)):
                    size = rng.randint(1, 3)
                    variables = rng.sample(range(base + 1, base + num_vars + 1),
                                           min(size, num_vars))
                    clauses.append(
                        [v if rng.random() < 0.5 else -v for v in variables]
                    )
                solver.add_clauses(
                    *flatten([c + [-selector] for c in clauses]),
                    trusted=True,
                    guard=-selector,
                )
                result = solver.solve(assumptions=[selector])
                oracle_cnf = CNF(num_vars=base + num_vars)
                for clause in clauses:
                    oracle_cnf.add_clause(clause)
                oracle = DPLLSolver().solve(oracle_cnf)
                assert result.is_sat == (oracle is not None), (
                    f"trial {trial} group {group}"
                )
                if result.is_sat:
                    projected = {
                        abs(v): result.model[abs(v)]
                        for clause in clauses
                        for v in clause
                    }
                    assert oracle_cnf.evaluate(projected)
                # Retire the group exactly like the mapper does.
                assert solver.add_clauses(*flatten(
                    [[-selector]]
                    + [[-v] for v in range(base + 1, base + num_vars + 1)]
                ))


class TestRareBranches:
    def test_mixed_guard_falls_back_to_plain_ternary(self):
        solver = make_solver()
        s1, s2 = solver.new_var(), solver.new_var()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clauses(*flatten([[a, b, -s1]]), trusted=True, guard=-s1)
        # Shares ``a`` but carries a different guard: must not corrupt the
        # guard table — the clause falls back to the plain ternary scheme.
        solver.add_clauses(*flatten([[a, c, -s2]]), trusted=True, guard=-s2)
        result = solver.solve(assumptions=[s1, s2, -a])
        assert result.is_sat
        assert result.model[b] is True and result.model[c] is True

    def test_new_vars_with_hints(self):
        solver = make_solver(activity_hints={2: 5.0}, phase_hints={1: True})
        variables = solver.new_vars(3)
        assert variables == [1, 2, 3]
        # Unconstrained variables take their hinted (else default) phase.
        assert solver.solve().model == {1: True, 2: False, 3: False}

    def test_bulk_resimplify_after_pending_units(self):
        solver = make_solver()
        solver.ensure_vars(4)
        # The unit [1] is pending when [−1, 2, 3, 4] arrives: the batch
        # must flush propagation and re-simplify before attaching.
        assert solver.add_clauses(*flatten([[1], [-1, 2, 3, 4], [-1, -2]]))
        result = solver.solve(assumptions=[-3])
        assert result.is_sat
        assert result.model[1] is True
        assert result.model[4] is True

    def test_negative_new_vars_rejected(self):
        with pytest.raises(ValueError):
            make_solver().new_vars(-1)
