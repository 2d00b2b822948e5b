"""Shared fixtures for the mapper tests."""

from __future__ import annotations

import pytest

import repro.search.base as search_base
from repro.search.base import (
    SearchContext,
    SearchResult,
    SearchStrategy,
    register_strategy,
)


class FreshPerIIStrategy(SearchStrategy):
    """The sequential ladder, with a fresh backend for every II.

    No learned clause, activity or phase crosses an II boundary, so this is
    the reference the persistent-backend ladder must agree with: same IIs,
    same attempt verdicts, same retry bookkeeping.
    """

    name = "fresh-per-ii"

    def search(self, ctx: SearchContext) -> SearchResult | None:
        for ii in range(ctx.first_ii, ctx.max_ii + 1):
            if ctx.out_of_time():
                ctx.outcome.timed_out = True
                return None
            found = ctx.attempt(ii, ctx.make_backend())
            if found is not None or ctx.outcome.timed_out:
                return found
        return None


@pytest.fixture
def fresh_per_ii():
    """Register :class:`FreshPerIIStrategy`; yield its ``search`` name."""
    register_strategy(FreshPerIIStrategy.name, FreshPerIIStrategy)
    yield FreshPerIIStrategy.name
    del search_base._REGISTRY[FreshPerIIStrategy.name]
