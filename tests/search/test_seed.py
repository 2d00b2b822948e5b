"""Heuristic II-seeding: pre-pass behaviour and seeded-search semantics."""

from __future__ import annotations

from repro.cgra.architecture import CGRA
from repro.cgra.capabilities import effective_minimum_ii
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search.seed import run_seed

#: The bench-suite configuration: decisive attempts and no regalloc
#: post-pass make the achieved II a formula property, so seeded and
#: unseeded runs are exactly comparable.
BENCH = dict(
    timeout=120,
    slack_conflict_limit=None,
    run_register_allocation=False,
    random_seed=0,
)


def _map(kernel: str, size: int, **overrides):
    fields = dict(BENCH)
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size)
    )


class TestRunSeed:
    def test_finds_validated_seed(self):
        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(**BENCH, seed_heuristic=True)
        mii = effective_minimum_ii(dfg, cgra)
        seed = run_seed(dfg, cgra, config, mii)
        assert seed is not None
        assert seed.ii >= mii
        assert seed.mapping.violations() == []
        assert seed.mapper_name in config.seed_mappers
        assert seed.wall_time > 0

    def test_zero_budget_yields_no_seed(self):
        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(**BENCH, seed_heuristic=True)
        assert run_seed(dfg, cgra, config, 7, budget=0.0) is None

    def test_respects_mapper_selection(self):
        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(
            **BENCH, seed_heuristic=True, seed_mappers=("pathseeker",)
        )
        seed = run_seed(dfg, cgra, config, 7)
        assert seed is None or seed.mapper_name == "pathseeker"


class TestSeededSearch:
    def test_seed_at_mii_skips_sat_entirely(self):
        """gsm@2x2: the heuristic reaches the MII, so zero SAT attempts run."""
        outcome = _map("gsm", 2, seed_heuristic=True)
        assert outcome.success
        assert outcome.seed_ii == outcome.minimum_ii
        assert outcome.ii == outcome.minimum_ii
        assert outcome.attempts == []
        assert outcome.seed_used
        assert outcome.seed_mapper in ("ramp", "pathseeker")

    def test_zero_budget_matches_unseeded_run_exactly(self):
        """A failed pre-pass must leave pre-seed behaviour untouched."""
        unseeded = _map("gsm", 2)
        seeded = _map("gsm", 2, seed_heuristic=True, seed_time_budget=0.0)
        assert seeded.seed_ii is None and not seeded.seed_used
        assert seeded.ii == unseeded.ii
        assert len(seeded.attempts) == len(unseeded.attempts)
        assert [a.ii for a in seeded.attempts] == [
            a.ii for a in unseeded.attempts
        ]
        assert all(a.seed_ceiling is None for a in seeded.attempts)

    def test_weak_seed_never_inflates_the_returned_ii(self, monkeypatch):
        """A seed above the optimum only bounds the search from above."""
        reference = _map("gsm", 2)
        assert reference.success
        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(**BENCH, seed_heuristic=True)
        weak = run_seed(dfg, cgra, config, reference.ii + 2)
        assert weak is not None and weak.ii > reference.ii
        monkeypatch.setattr(
            "repro.search.seed.run_seed", lambda *a, **k: weak
        )
        outcome = _map("gsm", 2, seed_heuristic=True)
        assert outcome.success
        assert outcome.ii == reference.ii
        assert outcome.seed_ii == weak.ii
        assert not outcome.seed_used
        # Every SAT attempt recorded the ceiling it ran under and stayed
        # strictly below it.
        assert outcome.attempts
        for attempt in outcome.attempts:
            assert attempt.seed_ceiling == weak.ii
            assert attempt.ii < weak.ii

    def test_seed_is_the_anytime_answer_on_timeout(self, monkeypatch):
        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(**BENCH, seed_heuristic=True)
        seed = run_seed(dfg, cgra, config, 9)
        assert seed is not None
        monkeypatch.setattr(
            "repro.search.seed.run_seed", lambda *a, **k: seed
        )
        outcome = _map("gsm", 2, seed_heuristic=True, timeout=1e-6)
        assert outcome.success
        assert outcome.ii == seed.ii
        assert outcome.seed_used
        assert outcome.mapping is seed.mapping

    def test_seeded_run_agrees_with_unseeded_ladder(self):
        reference = _map("gsm", 2)
        seeded = _map("gsm", 2, seed_heuristic=True)
        assert seeded.success
        assert seeded.ii == reference.ii


class TestSeedResultPlumbing:
    def test_summary_mentions_seed_on_cli_outcome(self):
        outcome = _map("gsm", 2, seed_heuristic=True)
        assert outcome.seed_time > 0
        assert isinstance(outcome.seed_ii, int)
