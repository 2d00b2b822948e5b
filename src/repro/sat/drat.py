"""DRAT proof logging, a forward proof checker, and the ``drat-trim`` hook.

Cached UNSAT results are only worth sharing if they are independently
checkable (ROADMAP item 1): a mapper that serves "II=k is infeasible" from a
cache must be able to show its work.  This module provides the three pieces:

* :class:`ProofLogger` — an append-only DRAT trace writer.  The CDCL solver
  logs every learned clause (all learned clauses produced by 1-UIP conflict
  analysis are RUP, hence DRAT) and every deletion from clause-database
  reduction.  A running SHA-256 over the emitted bytes gives a cheap,
  order-sensitive *proof digest* that cache entries and :class:`IIAttempt`
  records can store without retaining the trace itself.
* :func:`check_proof` — a bundled pure-Python *forward* DRAT checker
  (counter-based unit propagation, RUP with a RAT fallback on the first
  literal).  Forward checking is slower than backward ``drat-trim`` style
  checking but needs no binary and is plenty for the test-sized traces the
  repo verifies; every UNSAT proof emitted in the test-suite passes it.
* :func:`run_drat_trim` — an optional hook that defers to a system
  ``drat-trim`` binary when one is installed (CI installs it; containers
  without it skip transparently).

UNSAT *under assumptions* is not plain DRAT: the trace proves ``F ∧ cube``
unsatisfiable, not ``F``.  The convention used throughout this repo is that
the solver logs the negated assumption cube ``(¬a₁ ∨ … ∨ ¬aₖ)`` as its final
addition (it is RUP with respect to ``F`` plus the learned clauses), and the
checker is called with ``assumptions=cube`` which adds the cube literals as
unit clauses before replaying the trace.  A trace without an explicit empty
clause is accepted iff the empty clause is RUP after all additions — which
is exactly the assumption-cube case.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

__all__ = [
    "ProofLogger",
    "CheckResult",
    "check_proof",
    "check_proof_file",
    "parse_proof",
    "proof_digest",
    "drat_trim_available",
    "run_drat_trim",
]


class ProofLogger:
    """Append-only DRAT trace writer with a running SHA-256 digest.

    With a ``path`` the trace streams to disk; without one it accumulates
    in memory (unit tests use the in-memory form).
    The digest covers the exact emitted bytes, so two runs producing the
    same trace produce the same digest — and a tampered cache entry cannot
    forge one without re-deriving a trace.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self.path: str | None = str(path) if path is not None else None
        self._stream: TextIO | None = None
        self._lines: list[str] | None = None
        if self.path is not None:
            parent = Path(self.path).parent
            if parent and not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "w")
        else:
            self._lines = []
        self._sha = hashlib.sha256()
        self.additions = 0
        self.deletions = 0
        self.empty_logged = False
        self._closed = False

    def add(self, literals: Sequence[int]) -> None:
        """Log a clause addition (the empty clause is logged at most once)."""
        if not literals:
            if self.empty_logged:
                return
            self.empty_logged = True
        self._emit(" ".join(str(lit) for lit in literals) + " 0\n"
                   if literals else "0\n")
        self.additions += 1

    def delete(self, literals: Sequence[int]) -> None:
        """Log a clause deletion (``d`` line)."""
        if not literals:
            return
        self._emit("d " + " ".join(str(lit) for lit in literals) + " 0\n")
        self.deletions += 1

    def _emit(self, line: str) -> None:
        if self._closed:
            raise ValueError("proof logger is closed")
        self._sha.update(line.encode("ascii"))
        if self._stream is not None:
            self._stream.write(line)
        else:
            assert self._lines is not None
            self._lines.append(line)

    def digest(self) -> str:
        """Hex SHA-256 of the bytes emitted so far (flushes the stream)."""
        if self._stream is not None and not self._closed:
            self._stream.flush()
        return self._sha.hexdigest()

    def text(self) -> str:
        """The in-memory trace (file-backed loggers read the file back)."""
        if self._lines is not None:
            return "".join(self._lines)
        assert self.path is not None
        if not self._closed:
            self._stream.flush()  # type: ignore[union-attr]
        return Path(self.path).read_text()

    def close(self) -> None:
        if self._stream is not None and not self._closed:
            self._stream.close()
        self._closed = True

    def __enter__(self) -> "ProofLogger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def proof_digest(text: str) -> str:
    """Digest of a trace held as text (same scheme as the logger)."""
    return hashlib.sha256(text.encode("ascii", "replace")).hexdigest()


# ---------------------------------------------------------------------------
# Forward checker
# ---------------------------------------------------------------------------
@dataclass
class CheckResult:
    """Outcome of a forward DRAT check."""

    ok: bool
    steps: int = 0
    rat_steps: int = 0
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def parse_proof(text: str) -> list[tuple[bool, tuple[int, ...]]]:
    """Parse a textual DRAT trace into ``(is_delete, clause)`` steps."""
    steps: list[tuple[bool, tuple[int, ...]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        delete = line.startswith("d ") or line == "d"
        if delete:
            line = line[1:].strip()
        lits = [int(tok) for tok in line.split()]
        if not lits or lits[-1] != 0 or 0 in lits[:-1]:
            raise ValueError(f"malformed proof line: {raw!r}")
        steps.append((delete, tuple(lits[:-1])))
    return steps


class _Propagator:
    """Counter-based unit propagation over a mutable clause multiset.

    Clauses are stored once; ``unassigned`` counters plus per-literal
    occurrence lists make a RUP check linear in the touched clauses, and an
    undo trail restores only what a check dirtied — the standard trick that
    keeps forward checking usable on test-sized traces.
    """

    def __init__(self) -> None:
        self.clauses: list[tuple[int, ...] | None] = []
        self.occ: dict[int, list[int]] = {}
        self.unassigned: list[int] = []
        self.true_count: list[int] = []
        self.units: list[int] = []

    def add(self, clause: tuple[int, ...]) -> int:
        ref = len(self.clauses)
        self.clauses.append(clause)
        self.unassigned.append(len(clause))
        self.true_count.append(0)
        for lit in clause:
            self.occ.setdefault(lit, []).append(ref)
        if len(clause) == 1:
            self.units.append(ref)
        return ref

    def delete(self, clause: tuple[int, ...]) -> bool:
        """Delete one live copy matching ``clause`` (as a literal set)."""
        key = frozenset(clause)
        candidates = self.occ.get(next(iter(key), 0), [])
        for ref in candidates:
            live = self.clauses[ref]
            if live is not None and frozenset(live) == key:
                self.clauses[ref] = None
                return True
        return False

    def rup(self, clause: Sequence[int]) -> bool:
        """Is ``clause`` RUP? Assert its negation, propagate to conflict."""
        assigned: dict[int, bool] = {}
        trail: list[int] = []
        touched: list[int] = []
        queue: list[int] = []
        conflict = False

        def assign(lit: int) -> bool:
            var = abs(lit)
            value = lit > 0
            prev = assigned.get(var)
            if prev is not None:
                return prev == value
            assigned[var] = value
            trail.append(lit)
            queue.append(lit)
            return True

        for lit in clause:
            if not assign(-lit):
                conflict = True
                break

        # Unit propagation must start from the formula's unit clauses as
        # well as the asserted negation — the empty-clause check in
        # particular asserts nothing and relies entirely on these seeds.
        if not conflict:
            for ref in self.units:
                live = self.clauses[ref]
                if live is not None and not assign(live[0]):
                    conflict = True
                    break

        while queue and not conflict:
            lit = queue.pop()
            # lit became true: clauses containing lit are satisfied,
            # clauses containing -lit lose a candidate literal.
            for ref in self.occ.get(lit, ()):
                if self.clauses[ref] is not None:
                    self.true_count[ref] += 1
                    touched.append(ref)
            for ref in self.occ.get(-lit, ()):
                live = self.clauses[ref]
                if live is None:
                    continue
                self.unassigned[ref] -= 1
                touched.append(-ref - 1)
                if self.true_count[ref] > 0:
                    continue
                if self.unassigned[ref] == 0:
                    conflict = True
                    break
                if self.unassigned[ref] == 1:
                    unit = None
                    for cand in live:
                        var = abs(cand)
                        if var not in assigned:
                            unit = cand
                            break
                        if assigned[var] == (cand > 0):
                            unit = None
                            break
                    if unit is not None and not assign(unit):
                        conflict = True
                        break

        for mark in touched:
            if mark >= 0:
                self.true_count[mark] -= 1
            else:
                self.unassigned[-mark - 1] += 1
        return conflict


def check_proof(
    clauses: Iterable[Sequence[int]],
    proof: str | Sequence[tuple[bool, tuple[int, ...]]],
    assumptions: Sequence[int] = (),
) -> CheckResult:
    """Forward-check a DRAT trace against a formula.

    ``assumptions`` literals are added as unit clauses before replay (the
    UNSAT-under-assumptions convention, see the module docstring).  The check
    succeeds when a verified empty clause is derived, or — failing an
    explicit one — when the empty clause is RUP after the final step.
    """
    steps = parse_proof(proof) if isinstance(proof, str) else list(proof)
    prop = _Propagator()
    trivially_unsat = False
    for clause in clauses:
        clause = tuple(clause)
        if not clause:
            trivially_unsat = True
        prop.add(clause)
    for lit in assumptions:
        prop.add((lit,))

    rat_steps = 0
    for index, (delete, clause) in enumerate(steps):
        if delete:
            # Deleting a clause that is not present is tolerated (solvers
            # may log deletions of clauses already strengthened away); it
            # only ever weakens the derivation, never unsoundly helps it.
            prop.delete(clause)
            continue
        if not clause:
            if trivially_unsat or prop.rup(clause):
                return CheckResult(True, steps=index + 1, rat_steps=rat_steps)
            return CheckResult(
                False,
                steps=index + 1,
                rat_steps=rat_steps,
                reason="empty clause is not RUP",
            )
        if not prop.rup(clause):
            if not _rat(prop, clause):
                return CheckResult(
                    False,
                    steps=index + 1,
                    rat_steps=rat_steps,
                    reason=f"step {index + 1} is neither RUP nor RAT: {clause}",
                )
            rat_steps += 1
        prop.add(clause)

    if trivially_unsat or prop.rup(()):
        return CheckResult(True, steps=len(steps), rat_steps=rat_steps)
    return CheckResult(
        False,
        steps=len(steps),
        rat_steps=rat_steps,
        reason="trace ends without deriving the empty clause",
    )


def _rat(prop: _Propagator, clause: tuple[int, ...]) -> bool:
    """RAT check on the first literal (the DRAT pivot convention)."""
    pivot = clause[0]
    rest = set(clause)
    for ref in list(prop.occ.get(-pivot, ())):
        other = prop.clauses[ref]
        if other is None:
            continue
        if any(-lit in rest and lit != -pivot for lit in other):
            continue  # resolvent is a tautology
        resolvent = list(clause) + [lit for lit in other if lit != -pivot]
        if not prop.rup(resolvent):
            return False
    return True


def check_proof_file(
    clauses: Iterable[Sequence[int]],
    proof_path: str | os.PathLike[str],
    assumptions: Sequence[int] = (),
) -> CheckResult:
    """Convenience wrapper: read a trace file and :func:`check_proof` it."""
    return check_proof(
        clauses, Path(proof_path).read_text(), assumptions=assumptions
    )


# ---------------------------------------------------------------------------
# drat-trim hook
# ---------------------------------------------------------------------------
def drat_trim_available() -> bool:
    """True when a system ``drat-trim`` binary is on PATH."""
    return shutil.which("drat-trim") is not None


def run_drat_trim(
    cnf_path: str | os.PathLike[str],
    proof_path: str | os.PathLike[str],
    timeout: float = 60.0,
) -> CheckResult:
    """Check a proof with the system ``drat-trim`` (backward checker).

    Raises :class:`FileNotFoundError` when the binary is absent — call
    :func:`drat_trim_available` first, or catch and fall back to
    :func:`check_proof_file`.
    """
    binary = shutil.which("drat-trim")
    if binary is None:
        raise FileNotFoundError("drat-trim binary not found on PATH")
    result = subprocess.run(
        [binary, str(cnf_path), str(proof_path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if "s VERIFIED" in result.stdout:
        return CheckResult(ok=True)
    tail = result.stdout.strip().splitlines()
    return CheckResult(ok=False, reason=tail[-1] if tail else "drat-trim rejected")
