"""Result and statistics types and the version tag of the CDCL engine.

The engine is :class:`repro.sat.backend.CDCLBackend`, which runs its search
in the native core (``_cdcl.c``).  It is **incremental**: the clause
database, variable activities, saved phases and learned clauses all persist
across ``solve`` calls, and each call takes a list of assumption literals
replayed as pseudo-decisions below the real search (the MiniSat
``solve(assumps)`` interface).  The mapper uses that inside one (II, slack)
attempt: its constraint group hangs off a selector literal that every call
assumes, and a register-allocation retry adds one blocking clause and
re-solves with everything learned so far.  Each attempt gets a fresh
solver, as the paper builds a new formula for every II.  Passing a
:class:`repro.sat.cnf.CNF` to ``solve`` resets the solver and loads that
formula first, the classic one-shot interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
