"""Bundled DIMACS solver executable: ``python -m repro.sat.pysolver``.

A tiny competition-style front end over the repo's own CDCL engine
(:func:`repro.sat.solver.make_solver`).  It exists so the external-solving
pipeline (DIMACS export → subprocess → stdout parse → DRAT proof check) is
exercisable on any machine with just this repository — no system Kissat or
MiniSat required.  The ``"subprocess"`` backend name resolves to it, CI's
external smoke falls back to it, and the perf harness uses it for the
``cdcl``-vs-external twin cases when no faster binary is installed.

Interface (the "competition" dialect :mod:`repro.sat.external` speaks):

.. code-block:: text

    python -m repro.sat.pysolver [options] FILE.cnf [PROOF.drat]

    exit 10  s SATISFIABLE   + "v " model lines (terminated by "v 0")
    exit 20  s UNSATISFIABLE (DRAT trace written to PROOF.drat when given)
    exit 0   s UNKNOWN       (a budget ran out)

Options: ``--conflicts=N`` caps the conflict budget, ``--seed=N`` seeds the
solver; ``-q``/``--no-binary`` and any other flag are accepted and ignored
(real solvers tolerate their common flags, so the stub does too).
"""

from __future__ import annotations

import sys

from repro.sat.cnf import CNF
from repro.sat.drat import ProofLogger
from repro.sat.solver import make_solver

_MODEL_LITS_PER_LINE = 20


def main(argv: list[str] | None = None) -> int:
    """Solve a DIMACS file and print a competition-format answer."""
    argv = sys.argv[1:] if argv is None else argv
    conflicts: int | None = None
    seed: int | None = None
    paths: list[str] = []
    for arg in argv:
        if arg.startswith("--conflicts="):
            conflicts = int(arg.split("=", 1)[1])
        elif arg.startswith("--seed="):
            seed = int(arg.split("=", 1)[1])
        elif arg.startswith("-"):
            continue  # tolerated, like real solvers tolerate their flags
        else:
            paths.append(arg)
    if not paths or len(paths) > 2:
        print("usage: pysolver [options] FILE.cnf [PROOF.drat]", file=sys.stderr)
        return 2

    try:
        cnf = CNF.from_dimacs(open(paths[0]).read())
    except (OSError, ValueError) as exc:
        print(f"c error reading {paths[0]}: {exc}", file=sys.stderr)
        return 2

    proof = ProofLogger(paths[1]) if len(paths) == 2 else None
    solver = make_solver(random_seed=seed, proof=proof)
    result = solver.solve(cnf, conflict_limit=conflicts)
    if proof is not None:
        proof.close()

    print(f"c repro pysolver ({solver.num_vars} vars, {cnf.num_clauses} clauses)")
    if result.is_sat:
        print("s SATISFIABLE")
        assert result.model is not None
        lits = [
            var if result.model.get(var, False) else -var
            for var in range(1, cnf.num_vars + 1)
        ]
        for index in range(0, len(lits), _MODEL_LITS_PER_LINE):
            chunk = lits[index:index + _MODEL_LITS_PER_LINE]
            print("v " + " ".join(str(lit) for lit in chunk))
        print("v 0")
        return 10
    if result.is_unsat:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
