"""Boolean satisfiability substrate.

This package is a self-contained SAT toolkit used by the SAT-MapIt core:

* :mod:`repro.sat.cnf` — CNF formula container with DIMACS I/O, and the
  flat ``(literals, lengths)`` batch form every clause sink's
  ``add_clauses`` takes (:func:`repro.sat.cnf.flatten`).
* :mod:`repro.sat.encodings` — the at-most-one encoding names (pairwise,
  sequential, commander, auto) the mapping encoder's native emission
  kernel implements.
* :mod:`repro.sat.dpll` — a small, easy-to-audit DPLL solver used as the
  reference oracle in tests.
* :mod:`repro.sat.native` — the native core (``_cdcl.c``), built with the
  system C compiler on first use: an incremental CDCL solver (watched
  literals, 1-UIP clause learning, VSIDS, phase saving, Luby restarts, LBD
  clause deletion; the clause database persists across ``solve`` calls)
  plus the encoder's clause emission kernel.  Mapping requires it.
* :mod:`repro.sat.solver` — the solver's result and statistics types, the
  ``SOLVER_VERSION`` cache tag and :func:`~repro.sat.solver.make_solver`.
* :mod:`repro.sat.backend` — the pluggable :class:`SolverBackend` protocol
  plus the ``cdcl``/``dpll`` registry the mapper selects engines from; the
  mapper drives every solve of a run through one persistent backend.
* :mod:`repro.sat.drat` — DRAT proof logging, a bundled forward proof
  checker, and the optional ``drat-trim`` hook.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negation of the corresponding variable.
"""

from repro.sat.backend import (
    BackendStats,
    BackendUnavailableError,
    CDCLBackend,
    DPLLBackend,
    SolverBackend,
    available_backends,
    create_backend,
    register_backend,
    validate_backend,
)
from repro.sat.cnf import CNF, Clause
from repro.sat.dpll import DPLLSolver
from repro.sat.drat import ProofLogger, check_proof
from repro.sat.encodings import AMOEncoding
from repro.sat.solver import SolverResult, SolverStats, make_solver

__all__ = [
    "CNF",
    "Clause",
    "AMOEncoding",
    "DPLLSolver",
    "make_solver",
    "SolverResult",
    "SolverStats",
    "BackendStats",
    "BackendUnavailableError",
    "CDCLBackend",
    "DPLLBackend",
    "SolverBackend",
    "ProofLogger",
    "check_proof",
    "available_backends",
    "create_backend",
    "register_backend",
    "validate_backend",
]
