"""Boolean satisfiability substrate.

This package is a self-contained SAT toolkit used by the SAT-MapIt core:

* :mod:`repro.sat.cnf` — CNF formula container with DIMACS I/O, and the
  flat ``(literals, lengths)`` batch form every clause sink's
  ``add_clauses`` takes (:func:`repro.sat.cnf.flatten`).
* :mod:`repro.sat.encodings` — cardinality encodings (at-most-one,
  exactly-one) in pairwise, sequential and commander flavours.
* :mod:`repro.sat.dpll` — a small, easy-to-audit DPLL solver used as a
  reference oracle in tests.
* :mod:`repro.sat.solver` — an incremental CDCL solver (watched literals,
  1-UIP clause learning, VSIDS, phase saving, Luby restarts, LBD clause
  deletion; the clause database persists across ``solve`` calls) used for
  production mapping runs.
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
from repro.sat.encodings import (
    AMOEncoding,
    at_least_one,
    at_most_one,
    exactly_one,
)
from repro.sat.solver import CDCLSolver, SolverResult, SolverStats

__all__ = [
    "CNF",
    "Clause",
    "AMOEncoding",
    "at_least_one",
    "at_most_one",
    "exactly_one",
    "DPLLSolver",
    "CDCLSolver",
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
