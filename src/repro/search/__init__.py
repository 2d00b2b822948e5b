"""II-search orchestration layer (strategies + persistent mapping cache).

The SAT-MapIt mapping problem is solved as a ladder of SAT instances, one
candidate initiation interval at a time.  *How* that ladder is walked is a
policy decision independent of how a single (II, slack) attempt is encoded
and solved, so this package factors it out of the mapper:

* :class:`repro.search.base.SearchStrategy` — the policy interface; the
  mapper delegates its II search to a strategy and keeps doing everything
  else (encoding, solving, register allocation, stats) itself.
* :class:`repro.search.ladder.LadderStrategy` — the paper's sequential
  climb (the default, behaviour-identical to the pre-refactor loop).
* :class:`repro.search.portfolio.PortfolioStrategy` — a process-based
  parallel portfolio that races several IIs and a fixed line-up of solver
  configurations and cancels the losers on the first win at the frontier
  II.
* :class:`repro.search.cache.MappingCache` — a persistent, content-addressed
  result cache keyed by (DFG, CGRA spec, mapper configuration, solver
  version).
* :mod:`repro.search.seed` — a budgeted heuristic pre-pass (RAMP /
  PathSeeker) whose validated mapping becomes a feasible upper bound every
  strategy exploits, and the anytime answer on timeout.

Strategies are selected by name through ``MapperConfig.search`` / the CLI's
``--search`` flag; new ones plug in via :func:`register_strategy`.
"""

from __future__ import annotations

from repro.search.base import (
    SearchContext,
    SearchResult,
    SearchStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
)
from repro.search.cache import CacheStats, MappingCache, cache_key
from repro.search.ladder import LadderStrategy
from repro.search.portfolio import (
    PORTFOLIO_VARIANTS,
    PortfolioStrategy,
)
from repro.search.seed import SeedResult, run_seed

register_strategy("ladder", LadderStrategy)
register_strategy("portfolio", PortfolioStrategy)

__all__ = [
    "CacheStats",
    "LadderStrategy",
    "MappingCache",
    "PORTFOLIO_VARIANTS",
    "PortfolioStrategy",
    "SearchContext",
    "SearchResult",
    "SearchStrategy",
    "SeedResult",
    "available_strategies",
    "cache_key",
    "create_strategy",
    "register_strategy",
    "run_seed",
]
