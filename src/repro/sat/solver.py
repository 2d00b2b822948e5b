"""Result types, version tag and factory of the CDCL engine.

The engine itself is the native core in ``_cdcl.c``: an incremental
MiniSat-style CDCL solver (two-watched-literal propagation with blocker
literals, binary and ternary implication lists, first-UIP learning with
clause minimisation, VSIDS, phase saving, Luby restarts, LBD-driven
learned-clause reduction with arena compaction), driven from Python by
:class:`repro.sat.native.NativeCDCLSolver`.  :func:`make_solver` is the
one way to get one.

The solver is **incremental**: the clause database, variable activities,
saved phases and learned clauses all persist across ``solve`` calls, and
each call takes a list of assumption literals replayed as pseudo-decisions
below the real search (the MiniSat ``solve(assumps)`` interface).  This is
what makes the mapper's iterative loop cheap: retiring one (II, slack)
attempt and starting the next is an assumption flip, not a rebuild.
Passing a :class:`repro.sat.cnf.CNF` to ``solve`` resets the solver and
loads that formula first, the classic one-shot interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sat.native import NativeCDCLSolver

#: Version tag of the solving core.  The persistent mapping cache
#: (:mod:`repro.search.cache`) folds it into every cache key, so entries
#: computed by an older engine are invalidated the moment the core's
#: semantics-affecting behaviour changes.  Bump it whenever a change can
#: alter *which* mapping (not just how fast) a configuration produces.
SOLVER_VERSION = "flat-arena-1"


@dataclass
class SolverStats:
    """Counters describing the work done by a single ``solve`` call."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    solve_time: float = 0.0
    #: Implications delivered by the binary/ternary implication lists (work
    #: that previously went through the watch machinery).
    binary_propagations: int = 0
    #: Watch-list entries skipped because their blocker literal was already
    #: true — satisfied clauses dismissed without touching the arena.
    blocker_skips: int = 0
    #: Size of the clause arena (bytes, nominal 8 bytes per literal slot)
    #: when the call returned.
    arena_bytes: int = 0


@dataclass
class SolverResult:
    """Outcome of a ``solve`` call.

    ``status`` is one of ``"SAT"``, ``"UNSAT"`` or ``"UNKNOWN"`` (the latter
    when a conflict or time budget was exhausted).  ``model`` maps every
    problem variable to a boolean when the status is ``"SAT"`` — or only the
    requested projection when ``solve(model_vars=...)`` was used.
    """

    status: str
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"

    @property
    def is_unsat(self) -> bool:
        return self.status == "UNSAT"


def make_solver(**kwargs) -> NativeCDCLSolver:
    """A fresh incremental CDCL solver running in the native core.

    Takes :class:`repro.sat.native.NativeCDCLSolver`'s keyword arguments.
    Builds the core on first use; raises
    :class:`repro.sat.backend.BackendUnavailableError`, naming the compiler
    and the reason, when it cannot be built or loaded.
    """
    from repro.sat import native  # local import: native imports this module

    return native.NativeCDCLSolver(**kwargs)
