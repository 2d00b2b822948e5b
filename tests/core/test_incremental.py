"""Tests for the incremental mapping loop (persistent backend, selectors).

Covers the acceptance criteria of the incremental rework: the persistent
backend finds the same final II as a fresh backend per II (the test-local
``fresh-per-ii`` strategy from ``conftest.py``), register allocation
retries are pure incremental re-solves (exactly one blocking clause, zero
re-encoded base clauses), and the parallel sweep produces the same results
as the serial one.
"""

import pytest

import repro.core.mapper as mapper_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.regalloc import RegisterAllocation
from repro.dfg.graph import DFG, paper_running_example
from repro.experiments.runner import SAT_MAPIT, ExperimentConfig, run_sweep
from repro.kernels import get_kernel


class TestSemanticEquivalence:
    """Persistent-backend runs match fresh-backend-per-II solving."""

    @pytest.mark.parametrize("kernel,size", [
        ("srand", 2), ("basicmath", 2), ("stringsearch", 3), ("nw", 3),
        ("gsm", 2),
    ])
    def test_same_final_ii_as_fresh_solving(self, kernel, size, fresh_per_ii):
        dfg = get_kernel(kernel)
        cgra = CGRA.square(size)
        incremental = SatMapItMapper(MapperConfig(timeout=60)).map(dfg, cgra)
        fresh = SatMapItMapper(
            MapperConfig(timeout=60, search=fresh_per_ii)
        ).map(dfg, cgra)
        assert incremental.success and fresh.success
        assert incremental.ii == fresh.ii
        assert incremental.mapping.violations() == []

    def test_same_attempt_statuses_on_running_example(self, fresh_per_ii):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        incremental = SatMapItMapper(MapperConfig(timeout=60)).map(dfg, cgra)
        fresh = SatMapItMapper(
            MapperConfig(timeout=60, search=fresh_per_ii)
        ).map(dfg, cgra)
        assert [(a.ii, a.schedule_slack, a.status) for a in incremental.attempts] == [
            (a.ii, a.schedule_slack, a.status) for a in fresh.attempts
        ]

    def test_dpll_backend_reaches_same_ii_on_tiny_instance(self):
        dfg = DFG.from_edge_list("tiny", 3, [(0, 1), (1, 2)])
        cgra = CGRA.square(2)
        cdcl = SatMapItMapper(MapperConfig(timeout=60)).map(dfg, cgra)
        dpll = SatMapItMapper(
            MapperConfig(timeout=60, backend="dpll")
        ).map(dfg, cgra)
        assert cdcl.success and dpll.success
        assert cdcl.ii == dpll.ii
        assert dpll.backend_name == "dpll"


class TestIncrementalBookkeeping:
    def test_attempts_carry_selectors_and_no_reencodes(self):
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(
            get_kernel("gsm"), CGRA.square(2)
        )
        assert outcome.success
        selectors = [a.selector for a in outcome.attempts]
        assert all(s is not None for s in selectors)
        assert len(set(selectors)) == len(selectors)  # one fresh guard each
        # From each attempt's first solve onwards, only blocking clauses may
        # reach the solver — the base encoding is never re-emitted.
        assert all(
            a.retry_clauses_added == a.blocking_clauses for a in outcome.attempts
        )
        assert all(a.solve_calls >= 1 for a in outcome.attempts)

    def test_learned_clauses_carried_across_attempts(self):
        """A run whose first attempts are refuted carries inference forward."""
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(
            get_kernel("gsm"), CGRA.square(2)
        )
        assert outcome.success
        assert len(outcome.attempts) >= 2
        assert outcome.learned_carried > 0

    def test_fresh_per_ii_reference_isolates_iis(self, fresh_per_ii):
        """The reference strategy really isolates IIs from each other."""
        outcome = SatMapItMapper(
            MapperConfig(timeout=60, search=fresh_per_ii)
        ).map(get_kernel("bitcount"), CGRA.square(3))
        assert outcome.success
        assert len({a.ii for a in outcome.attempts}) >= 2
        first_per_ii = {}
        for attempt in outcome.attempts:
            first_per_ii.setdefault(attempt.ii, attempt)
        assert all(a.learned_carried_in == 0 for a in first_per_ii.values())


class TestRegallocRetriesArePureIncremental:
    """The satellite fix: retry rounds add one blocking clause, re-encode nothing."""

    @pytest.mark.parametrize("persistent", [True, False])
    def test_forced_retries_add_one_blocking_clause_each(
        self, monkeypatch, fresh_per_ii, persistent
    ):
        real_allocate = mapper_module.allocate_registers
        rejections = 2
        calls = {"n": 0}

        def flaky_allocate(dfg, cgra, mapping, neighbour_access):
            calls["n"] += 1
            if calls["n"] <= rejections:
                failed_pe = next(iter(mapping.placements.values())).pe
                return RegisterAllocation(
                    success=False,
                    failure_reason="forced rejection (test)",
                    failed_pe=failed_pe,
                )
            return real_allocate(dfg, cgra, mapping, neighbour_access)

        monkeypatch.setattr(mapper_module, "allocate_registers", flaky_allocate)
        outcome = SatMapItMapper(
            MapperConfig(
                timeout=60,
                search="ladder" if persistent else fresh_per_ii,
                regalloc_retries=3,
            )
        ).map(paper_running_example(), CGRA.square(2))
        assert outcome.success
        assert calls["n"] == rejections + 1

        sat_attempt = outcome.attempts[-1]
        assert sat_attempt.status == "SAT"
        # Every retry round was served by exactly one blocking clause and a
        # re-solve: measured at the solver sink, the retry phase pushed
        # exactly `rejections` clauses — zero re-encoded base clauses.
        assert sat_attempt.solve_calls == rejections + 1
        assert sat_attempt.blocking_clauses == rejections
        assert sat_attempt.retry_clauses_added == rejections
        assert outcome.incremental_resolves == rejections

    def test_retry_models_differ_on_blocked_pe(self, monkeypatch):
        real_allocate = mapper_module.allocate_registers
        seen_placements = []

        def recording_allocate(dfg, cgra, mapping, neighbour_access):
            placements = frozenset(
                (node, p.pe, p.cycle, p.iteration)
                for node, p in mapping.placements.items()
            )
            seen_placements.append(placements)
            if len(seen_placements) == 1:
                failed_pe = next(iter(mapping.placements.values())).pe
                return RegisterAllocation(
                    success=False,
                    failure_reason="forced rejection (test)",
                    failed_pe=failed_pe,
                )
            return real_allocate(dfg, cgra, mapping, neighbour_access)

        monkeypatch.setattr(mapper_module, "allocate_registers", recording_allocate)
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(
            paper_running_example(), CGRA.square(2)
        )
        assert outcome.success
        assert len(seen_placements) == 2
        assert seen_placements[0] != seen_placements[1]


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self):
        config = ExperimentConfig(
            kernels=("srand", "basicmath"),
            sizes=(2,),
            mappers=(SAT_MAPIT,),
            timeout=30.0,
        )
        serial = run_sweep(config)
        parallel = run_sweep(config, jobs=2)
        assert len(parallel.records) == len(serial.records)
        for serial_record, parallel_record in zip(serial.records, parallel.records):
            assert parallel_record.kernel == serial_record.kernel
            assert parallel_record.size == serial_record.size
            assert parallel_record.mapper == serial_record.mapper
            assert parallel_record.status == serial_record.status
            assert parallel_record.ii == serial_record.ii
