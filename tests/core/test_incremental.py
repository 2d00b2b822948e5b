"""Tests for the incremental part of the mapping loop.

Every (II, slack) attempt is solved in its own fresh solver, guarded by a
selector literal, and at most one attempt's solver is alive at a time.
Inside an attempt the solver is reused: register-allocation retries are
pure incremental re-solves (exactly one blocking clause, zero re-encoded
base clauses).  The parallel sweep produces the same results as the serial
one.  ``test_trajectory_golden.py`` pins the trajectories themselves.
"""

import weakref

import repro.core.mapper as mapper_module
import repro.sat.backend as backend_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.core.regalloc import RegisterAllocation
from repro.dfg.graph import DFG, paper_running_example
from repro.experiments.runner import SAT_MAPIT, ExperimentConfig, run_sweep
from repro.kernels import get_kernel
from repro.sat.backend import CDCLBackend, register_backend


class TestSemanticEquivalence:
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
        # Each attempt's guard is the first variable of its own solver.
        assert all(a.selector == 1 for a in outcome.attempts)
        # From each attempt's first solve onwards, only blocking clauses may
        # reach the solver — the base encoding is never re-emitted.
        assert all(
            a.retry_clauses_added == a.blocking_clauses for a in outcome.attempts
        )
        assert all(a.solve_calls >= 1 for a in outcome.attempts)

    def test_one_solver_alive_per_attempt_phase(self, monkeypatch):
        """Every attempt (and every escalation) builds a fresh solver, and
        the previous one is freed before the next is built."""
        alive = weakref.WeakSet()
        built = []

        class TrackedBackend(CDCLBackend):
            def __init__(self, **kwargs) -> None:
                built.append(len(alive))
                super().__init__(**kwargs)
                alive.add(self)

        monkeypatch.setattr(backend_module, "_REGISTRY",
                            dict(backend_module._REGISTRY))
        register_backend("tracked", TrackedBackend)
        outcome = SatMapItMapper(MapperConfig(backend="tracked")).map(
            get_kernel("gsm"), CGRA.square(4)
        )
        assert outcome.success
        escalations = sum(a.escalated for a in outcome.attempts)
        assert escalations
        assert len(built) == len(outcome.attempts) + escalations
        assert built == [0] * len(built)


class TestRegallocRetriesArePureIncremental:
    """The satellite fix: retry rounds add one blocking clause, re-encode nothing."""

    def test_forced_retries_add_one_blocking_clause_each(self, monkeypatch):
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
            MapperConfig(timeout=60, regalloc_retries=3)
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
