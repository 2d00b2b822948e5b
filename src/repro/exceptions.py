"""Exception hierarchy shared across the reproduction packages."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class DFGError(ReproError):
    """Raised for malformed or inconsistent data-flow graphs."""


class FrontendError(ReproError):
    """Raised when loop source code cannot be lexed, parsed or lowered."""


class ArchitectureError(ReproError):
    """Raised for invalid CGRA architecture descriptions."""


class MappingError(ReproError):
    """Raised when a mapper cannot produce or validate a mapping."""


class EncodingError(ReproError):
    """Raised when the CNF encoding of a mapping problem is inconsistent."""


class RegisterAllocationError(ReproError):
    """Raised when register allocation fails irrecoverably."""


class SimulationError(ReproError):
    """Raised when the CGRA simulator detects an illegal execution."""


class FarmError(ReproError):
    """Raised for unrecoverable sweep-farm conditions: a corrupt work
    journal, a resume attempt against a journal written by a different
    experiment configuration, or a journal directory that already holds a
    sweep (use ``--resume`` or a fresh directory)."""
