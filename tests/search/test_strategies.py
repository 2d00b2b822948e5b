"""Search strategies: registry, ladder/portfolio equivalence.

The ladder is the semantic reference (it is behaviour-identical to the
pre-refactor inline loop, which the rest of the test-suite pins down);
the portfolio must return the same II on every kernel here, with
simulator-clean mappings.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import procs
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search import available_strategies, create_strategy
from repro.search import portfolio as portfolio_module
from repro.search.portfolio import (
    _DEFAULT_LANE,
    PORTFOLIO_VARIANTS,
    PortfolioStrategy,
    _IIState,
    _portfolio_worker,
    variant_overrides,
)
from repro.simulator import CGRASimulator

KERNELS = ("srand", "stringsearch", "nw", "basicmath")

#: gsm on a 2x2 fabric: the minimal II, UNSAT at the base slack level and
#: mapped one slack level up.
GSM_2X2_II = 7


def _map(kernel: str, size: int = 3, **overrides):
    fields = dict(timeout=120, random_seed=0)
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size)
    )


def _lane_out_of_time_at_gsm_ii(conn, dfg, cgra, config, ii) -> None:
    """A portfolio lane that, at gsm's minimal II, proves the base slack
    level UNSAT and then runs out of time; lanes at other IIs run as
    usual."""
    if ii != GSM_2X2_II:
        _portfolio_worker(conn, dfg, cgra, config, ii)
        return
    outcome = SatMapItMapper(replace(config, max_extra_slack=0)).map(
        dfg, cgra, start_ii=ii
    )
    outcome.timed_out = True
    conn.send(outcome)


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

    @pytest.mark.parametrize("kernel, size", [
        ("gsm", 2), ("nw", 2), ("basicmath", 3), ("stringsearch", 3),
    ])
    def test_timeout_is_reported_when_lanes_answer_first(
        self, monkeypatch, kernel, size
    ):
        """Lanes get what remains of the budget, so with none left they
        answer "timed out" at once.  When those answers reach the parent
        before it sees its own deadline, the run must still end as a
        timeout, never as a failure or a win above an undecided II."""
        ladder = _map(kernel, size=size, search="ladder")
        real_wait = procs.wait
        monkeypatch.setattr(
            procs, "wait", lambda workers, timeout: real_wait(workers, None)
        )
        outcome = _map(kernel, size=size, search="portfolio", timeout=0.0)
        if outcome.success:
            # A lane mapped the minimal II inside the sliver of budget.
            assert outcome.ii == ladder.ii
        else:
            assert outcome.timed_out
            assert outcome.final_status == "timeout"

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_timed_out_lane_leaves_its_ii_open(self, monkeypatch, jobs):
        """A lane's partial all-UNSAT record proves nothing about its II:
        the mapping one II up must not be claimed as minimal."""
        monkeypatch.setattr(
            portfolio_module, "_portfolio_worker", _lane_out_of_time_at_gsm_ii
        )
        outcome = _map("gsm", size=2, search="portfolio", search_jobs=jobs)
        assert any(a.ii == GSM_2X2_II and a.status == "UNSAT"
                   for a in outcome.attempts)
        assert not outcome.success
        assert outcome.mapping is None
        assert outcome.final_status == "timeout"

    @pytest.mark.parametrize("search", ["ladder", "portfolio"])
    def test_timed_out_run_is_not_cached(self, monkeypatch, tmp_path, search):
        if search == "portfolio":
            monkeypatch.setattr(portfolio_module, "_portfolio_worker",
                                _lane_out_of_time_at_gsm_ii)
            timeout = 120
        else:
            timeout = 0.0
        outcome = _map("gsm", size=2, search=search, timeout=timeout,
                       cache_dir=str(tmp_path))
        assert outcome.final_status == "timeout"
        assert list(tmp_path.glob("*.json")) == []


def _state(total_lanes=2, win=False, unsat_proof=False, failed_lanes=0):
    state = _IIState(total_lanes, unsat_proof=unsat_proof,
                     failed_lanes=failed_lanes)
    if win:
        state.win = SimpleNamespace(mapping="mapping",
                                    register_allocation="allocation")
    return state


class TestPortfolioVerdicts:
    """The bookkeeping that decides which II a portfolio may claim."""

    @pytest.mark.parametrize("state, resolved, infeasible", [
        (_state(), False, False),
        (_state(win=True), True, False),
        (_state(unsat_proof=True), True, True),
        (_state(failed_lanes=2), True, True),
        (_state(failed_lanes=1), False, False),
    ], ids=["open", "win", "unsat-proof", "all-lanes-failed", "one-lane-left"])
    def test_ii_state(self, state, resolved, infeasible):
        assert state.resolved == resolved
        assert state.infeasible == infeasible

    @pytest.mark.parametrize("states, frontier, expected", [
        ({7: _state(win=True)}, 7, 7),
        ({7: _state(unsat_proof=True), 8: _state(win=True)}, 7, 8),
        ({7: _state(), 8: _state(win=True)}, 7, None),
        ({6: _state(), 7: _state(win=True)}, 7, 7),
        ({7: _state(failed_lanes=2), 9: _state(win=True)}, 7, None),
    ], ids=["win-at-frontier", "infeasible-then-win", "open-ii-blocks",
            "below-frontier-ignored", "never-raced-ii-blocks"])
    def test_anytime_result(self, states, frontier, expected):
        result = PortfolioStrategy()._anytime_result(states, frontier)
        assert (None if result is None else result.ii) == expected

    @pytest.mark.parametrize("escalated, lane, lineup, base, expected", [
        (True, 0, ("no-probe",), {}, False),
        (False, _DEFAULT_LANE, ("no-probe",), {}, False),
        (False, 0, ("no-probe", "default"), {}, False),
        (False, 0, ("no-probe",), {"amo_probe_conflicts": None}, False),
        (False, 0, ("no-probe",), {}, True),
    ], ids=["already-escalated", "default-lane", "default-racing",
            "no-op-overrides", "escalates"])
    def test_should_escalate(self, escalated, lane, lineup, base, expected):
        state = _state()
        state.escalated = escalated
        overrides = {} if lane == _DEFAULT_LANE else PORTFOLIO_VARIANTS[lineup[lane]]
        assert PortfolioStrategy._should_escalate(
            state, lane, lineup, MapperConfig(**base), overrides
        ) == expected


def test_strategy_recorded_in_outcome():
    for name in ("ladder", "portfolio"):
        outcome = _map("srand", search=name)
        assert outcome.search_strategy == name
