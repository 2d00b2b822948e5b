"""Tests for the shared IMS-with-ejection scheduling engine."""

import random

import pytest

from repro.baselines.base import (
    BaselineConfig,
    HeuristicMapper,
    height_priorities,
    height_priority_order,
    modulo_schedule_with_diagnostics,
    modulo_schedule_with_ejection,
    node_heights,
)
from repro.cgra.architecture import CGRA
from repro.dfg.graph import DFG, paper_running_example
from repro.kernels import get_kernel


def chain(n):
    return DFG.from_edge_list("chain", n, [(i, i + 1) for i in range(n - 1)])


class TestPriorities:
    def test_node_heights_chain(self):
        assert node_heights(chain(4)) == {0: 3, 1: 2, 2: 1, 3: 0}

    def test_height_order_puts_sources_first(self):
        order = height_priority_order(chain(4))
        assert order == [0, 1, 2, 3]

    def test_height_priorities_match_heights(self):
        dfg = paper_running_example()
        heights = node_heights(dfg)
        priorities = height_priorities(dfg)
        assert all(priorities[n] == float(heights[n]) for n in dfg.node_ids)

    def test_heights_ignore_back_edges(self):
        dfg = DFG.from_edge_list("rec", 3, [(0, 1), (1, 2), (2, 0, 1)])
        assert node_heights(dfg)[0] == 2


class TestSchedulingEngine:
    def test_schedules_chain(self):
        dfg = chain(4)
        mapping = modulo_schedule_with_ejection(
            dfg, CGRA.square(2), 4, height_priorities(dfg), random.Random(0)
        )
        assert mapping is not None
        assert mapping.violations() == []

    def test_respects_recurrence(self):
        dfg = DFG.from_edge_list("rec", 3, [(0, 1), (1, 2), (2, 0, 1)])
        mapping = modulo_schedule_with_ejection(
            dfg, CGRA.square(2), 3, height_priorities(dfg), random.Random(0)
        )
        assert mapping is not None
        assert mapping.violations() == []

    def test_fails_when_ii_too_small(self):
        dfg = DFG.from_edge_list("independent", 6, [])
        mapping = modulo_schedule_with_ejection(
            dfg, CGRA(rows=1, cols=1), 2, height_priorities(dfg), random.Random(0)
        )
        assert mapping is None

    def test_diagnostics_report_leftover_nodes(self):
        dfg = DFG.from_edge_list("independent", 6, [])
        mapping, leftover = modulo_schedule_with_diagnostics(
            dfg, CGRA(rows=1, cols=1), 2, height_priorities(dfg), random.Random(0)
        )
        assert mapping is None
        assert leftover

    def test_diagnostics_empty_on_success(self):
        dfg = chain(3)
        mapping, leftover = modulo_schedule_with_diagnostics(
            dfg, CGRA.square(2), 3, height_priorities(dfg), random.Random(0)
        )
        assert mapping is not None
        assert leftover == set()

    def test_running_example_schedulable_at_reasonable_ii(self):
        dfg = paper_running_example()
        mapping = modulo_schedule_with_ejection(
            dfg, CGRA.square(2), 5, height_priorities(dfg), random.Random(0)
        )
        assert mapping is not None
        assert mapping.violations() == []

    def test_strict_output_register_mode_produces_stricter_mappings(self):
        dfg = chain(4)
        mapping = modulo_schedule_with_ejection(
            dfg, CGRA.square(2), 4, height_priorities(dfg), random.Random(0),
            enforce_output_register=True,
        )
        if mapping is not None:
            assert mapping.violations(check_overwrite=True) == []


class TestHeuristicMapperDriver:
    class _FixedPriorityMapper(HeuristicMapper):
        name = "fixed"

        def _priorities(self, dfg, ii, attempt, rng):
            return height_priorities(dfg)

    def test_driver_finds_mapping(self):
        mapper = self._FixedPriorityMapper(BaselineConfig(attempts_per_ii=2))
        outcome = mapper.map(paper_running_example(), CGRA.square(2))
        assert outcome.success
        assert outcome.mapping.violations() == []
        assert outcome.ii >= outcome.minimum_ii

    def test_driver_respects_timeout(self):
        mapper = self._FixedPriorityMapper(BaselineConfig(timeout=0.0))
        outcome = mapper.map(get_kernel("gsm"), CGRA.square(3))
        assert not outcome.success
        assert outcome.final_status == "timeout"

    def test_driver_reports_failure_at_max_ii(self):
        dfg = DFG.from_edge_list("independent", 6, [])
        mapper = self._FixedPriorityMapper(BaselineConfig(max_ii=3))
        outcome = mapper.map(dfg, CGRA(rows=1, cols=1))
        assert not outcome.success
        assert outcome.final_status == "failed"

    def test_base_class_requires_priorities_override(self):
        mapper = HeuristicMapper()
        with pytest.raises(NotImplementedError):
            mapper.map(chain(2), CGRA.square(2))


class TestBaselineConfigValidation:
    """Values that would silently do nothing are rejected when built."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("attempts_per_ii", 0),
            ("attempts_per_ii", -3),
            ("max_ii", 0),
            ("budget_factor", 0),
            ("timeout", -1.0),
        ],
    )
    def test_rejects_values_that_do_nothing(self, field, value):
        with pytest.raises(ValueError, match=field):
            BaselineConfig(**{field: value})

    def test_rejected_through_replace_too(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="max_ii"):
            replace(BaselineConfig(), max_ii=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("attempts_per_ii", 1),
            ("max_ii", 1),
            ("budget_factor", 1),
            ("timeout", None),
            # The anytime probe, as in MapperConfig (see
            # test_driver_respects_timeout).
            ("timeout", 0.0),
        ],
    )
    def test_accepts_smallest_meaningful_values(self, field, value):
        assert getattr(BaselineConfig(**{field: value}), field) == value
