"""The paper's sequential II ladder (the default strategy).

Climb from the minimum II one step at a time until an attempt succeeds or a
bound is hit.  One persistent backend serves the whole climb, so learned
clauses, activities and phases carry across II bumps — this is
behaviour-identical to the loop :meth:`SatMapItMapper.map` ran inline before
the search layer was factored out, and the test-suite uses it as the
semantic reference for every other strategy.
"""

from __future__ import annotations

from repro.search.base import SearchContext, SearchResult, SearchStrategy


class LadderStrategy(SearchStrategy):
    """Sequential climb: try II, II+1, II+2, ... until one maps.

    A heuristic seed (``ctx.seed``) caps the climb: the seed mapping is a
    validated answer at ``seed.ii``, so the ladder only needs to probe
    strictly below it and returns the seed when the capped climb exhausts
    or times out — at ``seed.ii == first_ii`` the seed is provably optimal
    (the MII is a lower bound) and no SAT work runs at all.
    """

    name = "ladder"

    def search(self, ctx: SearchContext) -> SearchResult | None:
        """Climb IIs sequentially from the MII (the paper's strategy)."""
        seed = ctx.seed
        if seed is not None and seed.ii <= ctx.first_ii:
            return seed
        top_ii = ctx.max_ii if seed is None else min(ctx.max_ii, seed.ii - 1)
        backend = ctx.make_backend()
        for ii in range(ctx.first_ii, top_ii + 1):
            if ctx.out_of_time():
                ctx.outcome.timed_out = True
                return seed
            found = ctx.attempt(ii, backend)
            if found is not None:
                return found
            if ctx.outcome.timed_out:
                return seed
        return seed
