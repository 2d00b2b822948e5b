"""The mapper's II ladder (paper Fig. 3): climb one II at a time from the
MII, try increasing schedule slack inside each II, stop at the first
feasible one.

``SatMapItMapper._search`` owns the climb, the ``max_ii`` cap, the clock
check between rungs and the heuristic seed's ceiling and fallback; these
tests pin each of them down on real kernels.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search.seed import SeedResult
from repro.simulator import CGRASimulator

#: Kernels and fabrics that map within a fraction of a second; some map
#: at the MII, some climb past it on slack or register allocation.
LADDER_CASES = [
    ("srand", 2), ("srand", 3), ("nw", 2), ("nw", 3),
    ("basicmath", 2), ("basicmath", 3), ("stringsearch", 2),
    ("stringsearch", 3), ("gsm", 2), ("gsm", 3), ("bitcount", 2),
    ("bitcount", 3), ("backprop", 3), ("hotspot", 3), ("patricia", 2),
    ("sha", 3), ("sha2", 3),
]

#: Cases whose answer lies above the MII, so the ladder climbs at least
#: one rung: bitcount@3x3 maps at II 5 (MII 3), backprop@3x3 at 7 (MII 6).
CLIMBING = [("bitcount", 3), ("backprop", 3)]


def _map(kernel: str, size: int, start_ii: int | None = None, **overrides):
    fields = dict(timeout=120, random_seed=0)
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size), start_ii=start_ii
    )


def _seed_at(kernel: str, size: int, ii: int) -> SeedResult:
    """A validated mapping at exactly ``ii``, dressed as a heuristic seed."""
    mapped = _map(kernel, size, start_ii=ii)
    assert mapped.success and mapped.ii == ii
    return SeedResult(
        ii=ii, mapping=mapped.mapping,
        allocation=mapped.register_allocation, mapper_name="ramp",
        wall_time=0.0,
    )


def _stop_after_first_rung(monkeypatch) -> None:
    """Make the clock run out once the first II has been tried."""
    real_try_ii = SatMapItMapper._try_ii

    def first_rung_only(self, dfg, cgra, ii, outcome, start):
        result = real_try_ii(self, dfg, cgra, ii, outcome, start)
        outcome.timed_out = True
        return result

    monkeypatch.setattr(SatMapItMapper, "_try_ii", first_rung_only)


@pytest.mark.parametrize("kernel, size", LADDER_CASES)
def test_ladder_stops_at_first_feasible_ii(kernel, size):
    outcome = _map(kernel, size)
    assert outcome.success
    iis = [a.ii for a in outcome.attempts]
    # Every rung from the MII up to the answer is tried, in order.
    assert iis == sorted(iis)
    assert iis[0] == outcome.minimum_ii
    assert sorted(set(iis)) == list(range(outcome.minimum_ii, outcome.ii + 1))
    # Slack grows inside a rung; no rung below the answer mapped.
    for before, after in zip(outcome.attempts, outcome.attempts[1:]):
        if before.ii == after.ii:
            assert after.schedule_slack > before.schedule_slack
    assert all(a.status != "SAT" for a in outcome.attempts[:-1])
    assert outcome.attempts[-1].status == "SAT"
    assert outcome.attempts[-1].ii == outcome.ii
    assert all(a.seed_ceiling is None for a in outcome.attempts)
    assert outcome.mapping.violations() == []
    simulation = CGRASimulator(
        outcome.mapping, outcome.register_allocation
    ).run(4)
    assert simulation.success, simulation.errors


class TestIICap:
    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_cap_below_the_answer_fails(self, kernel, size):
        reference = _map(kernel, size)
        outcome = _map(kernel, size, max_ii=reference.ii - 1)
        assert not outcome.success
        assert outcome.final_status == "failed"
        assert outcome.mapping is None
        assert {a.ii for a in outcome.attempts} == set(
            range(reference.minimum_ii, reference.ii)
        )

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_cap_below_the_mii_runs_no_attempt(self, kernel, size):
        reference = _map(kernel, size)
        outcome = _map(kernel, size, max_ii=reference.minimum_ii - 1)
        assert not outcome.success
        assert outcome.final_status == "failed"
        assert outcome.attempts == []

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_cap_at_the_answer_is_inclusive(self, kernel, size):
        reference = _map(kernel, size)
        outcome = _map(kernel, size, max_ii=reference.ii)
        assert outcome.success
        assert outcome.ii == reference.ii
        assert len(outcome.attempts) == len(reference.attempts)


class TestStartII:
    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_start_at_the_answer_skips_lower_rungs(self, kernel, size):
        reference = _map(kernel, size)
        outcome = _map(kernel, size, start_ii=reference.ii)
        assert outcome.success
        assert outcome.ii == reference.ii
        assert {a.ii for a in outcome.attempts} == {reference.ii}

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_start_between_mii_and_answer_climbs_from_there(
        self, kernel, size
    ):
        reference = _map(kernel, size)
        first = reference.ii - 1
        assert first >= reference.minimum_ii
        outcome = _map(kernel, size, start_ii=first)
        assert outcome.ii == reference.ii
        assert outcome.attempts[0].ii == first
        assert [a.ii for a in outcome.attempts] == [
            a.ii for a in reference.attempts if a.ii >= first
        ]


class TestTimeout:
    @pytest.mark.parametrize("kernel, size", [
        ("gsm", 2), ("nw", 2), ("basicmath", 3), ("stringsearch", 3),
        ("bitcount", 3),
    ])
    def test_no_budget_runs_no_attempt(self, tmp_path, kernel, size):
        outcome = _map(kernel, size, timeout=0.0, cache_dir=str(tmp_path))
        assert not outcome.success
        assert outcome.timed_out
        assert outcome.final_status == "timeout"
        assert outcome.attempts == []
        assert outcome.mapping is None
        assert list(tmp_path.glob("*.json")) == []

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_clock_running_out_stops_the_climb(
        self, monkeypatch, tmp_path, kernel, size
    ):
        _stop_after_first_rung(monkeypatch)
        outcome = _map(kernel, size, cache_dir=str(tmp_path))
        assert not outcome.success
        assert outcome.final_status == "timeout"
        assert outcome.attempts
        assert {a.ii for a in outcome.attempts} == {outcome.minimum_ii}
        assert list(tmp_path.glob("*.json")) == []


@pytest.mark.parametrize("kernel, size", CLIMBING)
def test_complete_climb_is_cached_and_replayed(tmp_path, kernel, size):
    fresh = _map(kernel, size, cache_dir=str(tmp_path))
    assert fresh.success and not fresh.cache_hit
    assert len(list(tmp_path.glob("*.json"))) == 1
    replay = _map(kernel, size, cache_dir=str(tmp_path))
    assert replay.cache_hit
    assert replay.ii == fresh.ii
    assert replay.mapping.violations() == []


class TestSeedCeiling:
    """A heuristic seed caps the climb strictly below its II and is the
    answer when the capped climb finds nothing."""

    @pytest.mark.parametrize("offset", [0, 1, 2])
    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_seed_never_changes_the_answer(
        self, monkeypatch, kernel, size, offset
    ):
        reference = _map(kernel, size)
        seed = _seed_at(kernel, size, reference.ii + offset)
        monkeypatch.setattr(
            "repro.search.seed.run_seed", lambda *a, **k: seed
        )
        outcome = _map(kernel, size, seed_heuristic=True)
        assert outcome.success
        assert outcome.ii == reference.ii
        assert outcome.seed_ii == seed.ii
        # At the answer the capped climb exhausts and the seed is used;
        # above it the ladder finds the answer on its own.
        assert outcome.seed_used == (offset == 0)
        if offset == 0:
            assert outcome.mapping is seed.mapping
        assert outcome.attempts
        for attempt in outcome.attempts:
            assert attempt.ii < seed.ii
            assert attempt.seed_ceiling == seed.ii

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_seed_at_the_first_rung_runs_no_sat_attempt(
        self, monkeypatch, kernel, size
    ):
        reference = _map(kernel, size)
        seed = _seed_at(kernel, size, reference.ii)
        monkeypatch.setattr(
            "repro.search.seed.run_seed", lambda *a, **k: seed
        )
        outcome = _map(kernel, size, start_ii=seed.ii, seed_heuristic=True)
        assert outcome.success
        assert outcome.ii == seed.ii
        assert outcome.attempts == []
        assert outcome.seed_used

    @pytest.mark.parametrize("kernel, size", CLIMBING)
    def test_seed_answers_when_the_clock_runs_out(
        self, monkeypatch, tmp_path, kernel, size
    ):
        reference = _map(kernel, size)
        seed = _seed_at(kernel, size, reference.ii + 1)
        monkeypatch.setattr(
            "repro.search.seed.run_seed", lambda *a, **k: seed
        )
        _stop_after_first_rung(monkeypatch)
        outcome = _map(kernel, size, seed_heuristic=True,
                       cache_dir=str(tmp_path))
        assert outcome.success
        assert outcome.timed_out
        assert outcome.ii == seed.ii
        assert outcome.seed_used
        assert outcome.mapping is seed.mapping
        assert {a.ii for a in outcome.attempts} == {outcome.minimum_ii}
        # An anytime answer is never cached.
        assert list(tmp_path.glob("*.json")) == []
