"""What the mapper runs around its II search: a cache and a seed pre-pass.

The II search itself is the paper's ladder, a loop in
:meth:`repro.core.mapper.SatMapItMapper._search`.  This package holds the
two layers around it:

* :class:`repro.search.cache.MappingCache` — a persistent, content-addressed
  result cache keyed by (DFG, CGRA spec, mapper configuration, solver
  version).
* :mod:`repro.search.seed` — a budgeted heuristic pre-pass (RAMP /
  PathSeeker) whose validated mapping caps the ladder from above and is
  the anytime answer on timeout.
"""

from __future__ import annotations

from repro.search.cache import CacheStats, MappingCache, cache_key
from repro.search.seed import SeedResult, run_seed

__all__ = [
    "CacheStats",
    "MappingCache",
    "SeedResult",
    "cache_key",
    "run_seed",
]
