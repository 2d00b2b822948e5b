"""Search strategies: registry, ladder/portfolio equivalence.

The ladder is the semantic reference (it is behaviour-identical to the
pre-refactor inline loop, which the rest of the test-suite pins down);
the portfolio must return the same II on every kernel here, with
simulator-clean mappings.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search import available_strategies, create_strategy
from repro.search.portfolio import PORTFOLIO_VARIANTS, variant_overrides
from repro.simulator import CGRASimulator

KERNELS = ("srand", "stringsearch", "nw", "basicmath")


def _map(kernel: str, size: int = 3, **overrides):
    fields = dict(timeout=120, random_seed=0)
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size)
    )


class TestRegistry:
    def test_built_in_strategies_registered(self):
        names = available_strategies()
        assert set(names) == {"ladder", "portfolio"}

    def test_create_by_name(self):
        assert create_strategy("ladder").name == "ladder"
        assert create_strategy("portfolio").name == "portfolio"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            create_strategy("simulated-annealing")

    def test_unknown_strategy_rejected_by_mapper(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            _map("srand", search="simulated-annealing")

    def test_unknown_portfolio_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio variant"):
            variant_overrides(("default", "quantum"))

    def test_variant_table_is_config_compatible(self):
        for name, overrides in PORTFOLIO_VARIANTS.items():
            config = MapperConfig(**overrides)  # must construct cleanly
            assert config is not None, name


@pytest.mark.parametrize("kernel", KERNELS)
def test_portfolio_matches_ladder(kernel):
    """Satellite requirement: portfolio-vs-ladder II equivalence,
    simulator-validated, on >= 4 kernels."""
    ladder = _map(kernel, search="ladder")
    portfolio = _map(kernel, search="portfolio", search_jobs=2)
    assert ladder.success and portfolio.success
    assert portfolio.ii == ladder.ii, f"{kernel}: portfolio diverged"
    assert portfolio.search_strategy == "portfolio"
    assert portfolio.portfolio_launched >= 1
    assert portfolio.mapping.violations() == []
    simulation = CGRASimulator(
        portfolio.mapping, portfolio.register_allocation
    ).run(4)
    assert simulation.success, simulation.errors


class TestPortfolio:
    def test_capped_range_fails_like_ladder(self):
        ladder = _map("gsm", size=2, search="ladder", max_ii=4)
        portfolio = _map("gsm", size=2, search="portfolio", max_ii=4,
                         search_jobs=2)
        assert not ladder.success and not portfolio.success
        assert portfolio.final_status == ladder.final_status == "failed"

    def test_merged_attempts_are_ii_sorted(self):
        outcome = _map("nw", size=2, search="portfolio", search_jobs=2)
        assert outcome.success
        iis = [a.ii for a in outcome.attempts]
        assert iis == sorted(iis)

    def test_explicit_variant_lineup(self):
        outcome = _map(
            "srand", search="portfolio", search_jobs=2,
            portfolio_variants=("sequential",),
        )
        assert outcome.success
        assert outcome.portfolio_winner == "sequential"

    def test_regalloc_blocked_ii_escalates_to_default_variant(self):
        """gsm@2x2: the no-probe variant's II=7 models keep failing register
        allocation, while the default trajectory colours II=7 fine.  A
        regalloc failure must escalate the II to a default-variant lane
        instead of letting the frontier pass it — otherwise the portfolio
        would report II=8 where the ladder reports 7."""
        ladder = _map("gsm", size=2, search="ladder")
        portfolio = _map(
            "gsm", size=2, search="portfolio", search_jobs=2,
            portfolio_variants=("no-probe",),
        )
        assert ladder.ii == 7
        assert portfolio.ii == ladder.ii
        assert portfolio.portfolio_winner == "default"
        assert any(
            a.status == "REGALLOC_FAIL" for a in portfolio.attempts
        )

    def test_timeout_is_reported(self):
        # A timeout that cannot fit even one attempt must come back as a
        # timed-out failure, with every worker reaped.
        outcome = _map("gsm", size=2, search="portfolio", timeout=0.0)
        assert not outcome.success
        assert outcome.timed_out
        assert outcome.final_status == "timeout"


def test_strategy_recorded_in_outcome():
    for name in ("ladder", "portfolio"):
        outcome = _map("srand", search=name)
        assert outcome.search_strategy == name
