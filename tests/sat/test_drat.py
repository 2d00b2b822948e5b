"""DRAT proof logging and the bundled forward checker.

Two layers under test: the checker itself (RUP steps, RAT fallback,
deletions, assumption cubes, malformed traces) and the CDCL engine's proof
emission — every UNSAT answer the solver produces while logging must yield a
trace the bundled checker verifies, including UNSAT-under-assumptions
answers, where the trace ends with the negated assumption cube.
"""

from __future__ import annotations

import random

import pytest

from repro.sat.backend import CDCLBackend
from repro.sat.cnf import CNF
from repro.sat.drat import (
    ProofLogger,
    check_proof,
    check_proof_file,
    drat_trim_available,
    parse_proof,
    proof_digest,
    run_drat_trim,
)

from tests.sat.test_differential import random_cnf

#: Binary-counting CNF over 3 variables: all 8 sign patterns, trivially
#: UNSAT and refutable by RUP alone.
ALL_PATTERNS_3 = [
    (s1 * 1, s2 * 2, s3 * 3)
    for s1 in (1, -1)
    for s2 in (1, -1)
    for s3 in (1, -1)
]


def _cnf(clauses) -> CNF:
    cnf = CNF()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


# ---------------------------------------------------------------------------
# Checker unit tests
# ---------------------------------------------------------------------------


def test_rup_refutation_accepted():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    result = check_proof(clauses, "1 0\n0\n")
    assert result.ok, result.reason
    assert result.steps == 2


def test_implicit_empty_clause_accepted():
    # Solvers may end the trace without the explicit "0" line; the checker
    # accepts iff the empty clause is RUP after all additions.
    clauses = [(1,), (-1, 2), (-2,)]
    assert check_proof(clauses, "").ok


def test_non_rup_addition_rejected():
    # (-2) is neither RUP nor RAT here: both clauses contain 2, and neither
    # resolvent is a unit-propagation consequence.
    result = check_proof([(1, 2), (-1, 2)], "-2 0\n0\n")
    assert not result.ok
    assert "-2" in (result.reason or "")


def test_vacuous_rat_does_not_fake_a_refutation():
    # (1) is vacuously RAT over [(1, 2)] (no clause contains -1), but the
    # empty clause still does not follow — the proof must be rejected at
    # the end, not waved through.
    assert not check_proof([(1, 2)], "1 0\n0\n").ok


def test_unsat_claim_without_derivation_rejected():
    assert not check_proof([(1, 2), (-1, 2)], "0\n").ok


def test_deletions_are_honoured():
    # (1) is RUP from the first two clauses; deleting one of them first
    # must invalidate the later step.
    clauses = [(1, 2), (1, -2), (-1,)]
    good = "1 0\n0\n"
    bad = "d 1 2 0\n1 0\n0\n"
    assert check_proof(clauses, good).ok
    assert not check_proof(clauses, bad).ok


def test_deleting_absent_clause_is_tolerated():
    # Omitted deletions are sound, and solvers may delete clauses the
    # checker never saw (e.g. logged before a restart); both directions
    # must be tolerated rather than fatal.
    clauses = [(1,), (-1,)]
    assert check_proof(clauses, "d 5 6 0\n0\n").ok


def test_rat_step_accepted():
    # Canonical DRAT example (Wetzler et al.): the first addition is not
    # RUP but is RAT on its first literal.
    clauses = [
        (1, 2, -3), (-1, -2, 3), (2, 3, -4), (-2, -3, 4),
        (-1, -3, -4), (1, 3, 4), (-1, 2, 4), (1, -2, -4),
    ]
    result = check_proof(clauses, "-1 0\n2 0\n0\n")
    assert result.ok, result.reason
    assert result.rat_steps >= 1


def test_trivially_unsat_formula():
    assert check_proof([()], "").ok
    assert check_proof([(1,), ()], "0\n").ok


def test_assumption_cube_closes_the_proof():
    # F = (¬1∨2)(¬2∨3)(¬1∨¬3) is SAT, UNSAT under assumption 1.  The
    # solver's trace ends with the negated cube (¬1), which is RUP; the
    # checker then refutes F + cube.
    clauses = [(-1, 2), (-2, 3), (-1, -3)]
    trace = "-1 0\n"
    assert check_proof(clauses, trace, assumptions=[1]).ok
    # Without the assumption the formula is satisfiable and the same trace
    # must NOT check out as a refutation.
    assert not check_proof(clauses, trace).ok


def test_parse_proof_and_malformed_lines():
    steps = parse_proof("1 -2 0\nd 3 0\n0\n")
    assert steps == [(False, (1, -2)), (True, (3,)), (False, ())]
    with pytest.raises(ValueError):
        parse_proof("1 -2\n")  # missing terminating zero


# ---------------------------------------------------------------------------
# ProofLogger
# ---------------------------------------------------------------------------


def test_proof_logger_memory_and_file_agree(tmp_path):
    path = tmp_path / "trace.drat"
    with ProofLogger(path) as to_file:
        to_file.add([1, -2])
        to_file.delete([3, 4])
        to_file.add([])
        file_digest = to_file.digest()
    in_memory = ProofLogger()
    in_memory.add([1, -2])
    in_memory.delete([3, 4])
    in_memory.add([])
    assert path.read_text() == in_memory.text() == "1 -2 0\nd 3 4 0\n0\n"
    assert file_digest == in_memory.digest() == proof_digest(in_memory.text())


def test_proof_logger_single_empty_clause():
    logger = ProofLogger()
    logger.add([])
    logger.add([])  # conflict rediscovery must not duplicate the terminator
    assert logger.text() == "0\n"


# ---------------------------------------------------------------------------
# CDCL proof emission
# ---------------------------------------------------------------------------


def test_cdcl_refutation_proof_checks(tmp_path):
    path = tmp_path / "cdcl.drat"
    logger = ProofLogger(path)
    solver = CDCLBackend(proof=logger)
    result = solver.solve(_cnf(ALL_PATTERNS_3))
    logger.close()
    assert result.status == "UNSAT"
    verdict = check_proof_file(ALL_PATTERNS_3, path)
    assert verdict.ok, verdict.reason


def test_cdcl_assumption_proof_checks():
    clauses = [(-1, 2), (-2, 3), (-1, -3)]
    logger = ProofLogger()
    solver = CDCLBackend(proof=logger)
    result = solver.solve(_cnf(clauses), assumptions=[1])
    assert result.status == "UNSAT"
    verdict = check_proof(clauses, logger.text(), assumptions=[1])
    assert verdict.ok, verdict.reason


@pytest.mark.parametrize("block", range(4))
def test_cdcl_proofs_on_random_unsat_instances(block):
    """Every UNSAT verdict the logging solver emits must be certifiable.

    Reuses the differential corpus generator; learned-clause deletions
    (``_reduce_learned``) are part of the logged trace, so instances hard
    enough to trigger reduction exercise the deletion path too.
    """
    checked = 0
    for seed in range(block * 25, (block + 1) * 25):
        rng = random.Random(seed)
        cnf = random_cnf(rng)
        logger = ProofLogger()
        result = CDCLBackend(proof=logger).solve(cnf)
        if result.status != "UNSAT":
            continue
        verdict = check_proof(cnf.clauses, logger.text())
        assert verdict.ok, f"seed {seed}: {verdict.reason}"
        checked += 1
    assert checked  # the corpus straddles the phase transition


def test_cdcl_backend_proof_digest(tmp_path):
    path = tmp_path / "backend.drat"
    backend = CDCLBackend(proof_path=str(path))
    backend.new_vars(3)
    for clause in ALL_PATTERNS_3:
        backend.add_clause(clause)
    assert backend.proof_digest() is None  # nothing derived yet
    result = backend.solve()
    assert result.status == "UNSAT"
    digest = backend.proof_digest()
    assert digest == proof_digest(path.read_text())
    verdict = check_proof_file(ALL_PATTERNS_3, path)
    assert verdict.ok, verdict.reason


@pytest.mark.skipif(not drat_trim_available(), reason="drat-trim not installed")
def test_drat_trim_agrees(tmp_path):
    path = tmp_path / "trim.drat"
    logger = ProofLogger(path)
    result = CDCLBackend(proof=logger).solve(_cnf(ALL_PATTERNS_3))
    logger.close()
    assert result.status == "UNSAT"
    ok, _output = run_drat_trim(ALL_PATTERNS_3, path)
    assert ok
