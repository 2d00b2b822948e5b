"""Bisection search over the II with UNSAT answers as lower bounds.

Modulo-scheduling feasibility is monotone in the II for decisive attempts:
a larger II only relaxes the resource and timing constraints, so an UNSAT
answer at II = k rules out every II <= k and a SAT answer at II = k bounds
the optimum from above.  The strategy exploits both directions:

1. **Gallop** upward from the first candidate with exponentially growing
   gaps (+1, +2, +4, ...) until an II maps (clamping the last probe to the
   II cap, so total failure is still a proof over the whole range).
2. **Binary-search** the open interval between the last failure and the
   found upper bound, keeping the lowest mapping seen.

When the gap between the minimum II and the achievable II is wide (tiny
fabrics, congested kernels), this attempts O(log gap) instances instead of
the ladder's O(gap).  Skipping is only sound against *proofs*: a
conflict- or time-bounded attempt that ends inconclusively rules out
nothing below it, so the first non-decisive failure drops the search into
a sequential (ladder-style) sweep of the not-yet-ruled-out range, skipping
only IIs already attempted.  On decisive runs (the perf suite, the CI
equivalence gate) that fallback never triggers and the answer is identical
to the ladder's.

One persistent backend serves all probes: attempts are
selector-guarded constraint groups, so probing out of ladder order is sound
(retiring a group is an assumption flip, independent of II ordering).

With a heuristic seed (``MapperConfig.seed_heuristic``), phase 1 vanishes:
the seed mapping is already a validated upper bound, so the binary search
starts on ``[first_ii, seed.ii - 1]`` and the seed is the fallback answer
when the whole interval is refuted or the clock runs out.
"""

from __future__ import annotations

from repro.search.base import SearchContext, SearchResult, SearchStrategy


class BisectionStrategy(SearchStrategy):
    """Gallop to a feasible II, then binary-search down to the optimum."""

    name = "bisect"

    def search(self, ctx: SearchContext) -> SearchResult | None:
        """Bisect the II range using UNSAT answers as lower bounds."""
        backend = ctx.make_backend()
        best: SearchResult | None = None
        visited: set[int] = set()
        lo = ctx.first_ii  # lowest II not yet ruled out
        if lo > ctx.max_ii:
            return None

        if ctx.seed is not None:
            # A heuristic seed *is* the feasible upper bound the gallop
            # exists to discover: skip phase 1 entirely and binary-search
            # [first_ii, seed.ii - 1] directly.  A seed at the first
            # candidate is provably optimal (the MII bounds from below).
            if ctx.seed.ii <= lo:
                return ctx.seed
            best = ctx.seed
            hi = min(ctx.max_ii, ctx.seed.ii - 1)
        else:
            # Phase 1: gallop for a feasible upper bound.
            gap = 1
            probe = lo
            hi = ctx.max_ii
            while best is None:
                if ctx.out_of_time():
                    ctx.outcome.timed_out = True
                    return None
                probe = min(probe, ctx.max_ii)
                found = ctx.attempt(probe, backend)
                visited.add(probe)
                if found is not None:
                    best = found
                    hi = probe - 1
                    break
                if ctx.outcome.timed_out:
                    return None
                if not ctx.attempt_was_decisive(probe):
                    # An inconclusive (bounded) failure proves nothing about
                    # the IIs below the probe — skipping from here would be
                    # unsound.
                    return self._sequential_tail(
                        ctx, backend, lo, ctx.max_ii, visited, None
                    )
                lo = probe + 1
                if probe >= ctx.max_ii:
                    return None  # every II up to the cap is refuted
                probe = probe + gap  # gaps +1, +2, +4, ... as documented
                gap *= 2

        # Phase 2: binary search in [lo, hi] below the found bound.
        while lo <= hi:
            if ctx.out_of_time():
                ctx.outcome.timed_out = True
                return best
            mid = (lo + hi) // 2
            found = ctx.attempt(mid, backend)
            visited.add(mid)
            if found is not None:
                best = found
                hi = mid - 1
            else:
                if ctx.outcome.timed_out:
                    return best
                if not ctx.attempt_was_decisive(mid):
                    return self._sequential_tail(
                        ctx, backend, lo, hi, visited, best
                    )
                lo = mid + 1
        return best

    @staticmethod
    def _sequential_tail(
        ctx: SearchContext,
        backend,
        lo: int,
        hi: int,
        visited: set[int],
        best: SearchResult | None,
    ) -> SearchResult | None:
        """Ladder-style sweep of ``[lo, hi]`` once skipping became unsound.

        Visits every not-yet-attempted II in ascending order; the first
        success is minimal among the unruled candidates (everything below
        ``lo`` was decisively refuted, everything already visited failed),
        falling back to the ``best`` upper bound found before the switch.
        """
        for ii in range(lo, hi + 1):
            if ii in visited:
                continue
            if ctx.out_of_time():
                ctx.outcome.timed_out = True
                return best
            found = ctx.attempt(ii, backend)
            if found is not None:
                return found
            if ctx.outcome.timed_out:
                return best
        return best
