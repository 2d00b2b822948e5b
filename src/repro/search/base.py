"""Strategy interface and the mapper/strategy bridge.

A *search strategy* decides which candidate IIs to attempt and in what
order; the mapper keeps owning what one attempt means (mobility schedule,
a fresh solver, encoding, solving, register allocation, per-attempt
stats).  The bridge between the two is :class:`SearchContext`: a thin
facade over one mapping run that lets a strategy request "attempt this II"
without seeing any of the solving machinery, while every attempt it
triggers lands in the run's
:class:`~repro.core.mapper.MappingOutcome` exactly as before.

The contract every strategy must honour:

* return the *smallest* feasible II it can prove within the run's budgets
  (for the sequential ladder this is by construction; the portfolio only
  returns a win once every II below it is resolved);
* record timeouts by setting ``ctx.outcome.timed_out`` and returning what
  it has (``None`` or a feasible-but-possibly-non-minimal result — the
  anytime behaviour the ladder already had);
* never mutate the mapper's configuration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mapper imports us)
    from repro.cgra.architecture import CGRA
    from repro.core.mapper import MapperConfig, MappingOutcome, SatMapItMapper
    from repro.core.mapping import Mapping
    from repro.core.regalloc import RegisterAllocation
    from repro.dfg.graph import DFG


@dataclass
class SearchResult:
    """A feasible mapping found by a strategy."""

    ii: int
    mapping: "Mapping"
    allocation: "RegisterAllocation | None"


class SearchContext:
    """One mapping run, as seen by a search strategy."""

    def __init__(
        self,
        mapper: "SatMapItMapper",
        dfg: "DFG",
        cgra: "CGRA",
        outcome: "MappingOutcome",
        start: float,
        first_ii: int,
        seed: SearchResult | None = None,
    ) -> None:
        self.mapper = mapper
        self.dfg = dfg
        self.cgra = cgra
        self.outcome = outcome
        self.start = start
        self.first_ii = first_ii
        #: Validated heuristic upper bound (see :mod:`repro.search.seed`):
        #: a feasible mapping at ``seed.ii``.  Strategies only need to
        #: search ``[first_ii, seed.ii - 1]`` and fall back to the seed
        #: itself on exhaustion or timeout; ``None`` in unseeded runs.
        self.seed = seed

    @property
    def config(self) -> "MapperConfig":
        return self.mapper.config

    @property
    def max_ii(self) -> int:
        return self.config.max_ii

    def attempt(self, ii: int) -> SearchResult | None:
        """Attempt one II (all slack levels) through the mapper's machinery.

        Every (II, slack) attempt is solved in its own fresh solver and
        appended to the run's outcome; a timeout inside the attempt sets
        ``outcome.timed_out``.
        """
        before = len(self.outcome.attempts)
        found = self.mapper._try_ii(
            self.dfg, self.cgra, ii, self.outcome, self.start
        )
        if self.seed is not None:
            for attempt in self.outcome.attempts[before:]:
                attempt.seed_ceiling = self.seed.ii
        if found is None:
            return None
        mapping, allocation = found
        return SearchResult(ii=ii, mapping=mapping, allocation=allocation)

    def out_of_time(self) -> bool:
        return self.mapper._out_of_time(self.start)

    def remaining_time(self) -> float | None:
        return self.mapper._remaining_time(self.start)


class SearchStrategy(abc.ABC):
    """Policy deciding which IIs to attempt, in what order, and when to stop."""

    #: Registry / CLI name; set by subclasses.
    name: str = "?"

    @abc.abstractmethod
    def search(self, ctx: SearchContext) -> SearchResult | None:
        """Run the II search; return the best result found (or ``None``)."""


StrategyFactory = Callable[[], SearchStrategy]

_REGISTRY: dict[str, StrategyFactory] = {}


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register a strategy factory under ``name`` (overwrites silently)."""
    if not name:
        raise ValueError("strategy name must be non-empty")
    _REGISTRY[name] = factory


def available_strategies() -> list[str]:
    """Names of all registered search strategies, sorted."""
    return sorted(_REGISTRY)


def create_strategy(name: str) -> SearchStrategy:
    """Instantiate a registered strategy by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {name!r}; "
            f"available: {available_strategies()}"
        ) from None
    return factory()
