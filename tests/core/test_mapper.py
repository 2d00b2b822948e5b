"""Tests for the iterative SAT-MapIt mapping driver."""

import json
import os
import tempfile

import pytest

from repro.baselines.exhaustive import ExhaustiveMapper
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.dfg.graph import DFG, paper_running_example
from repro.frontend import compile_loop
from repro.kernels import get_kernel


def chain(n):
    return DFG.from_edge_list("chain", n, [(i, i + 1) for i in range(n - 1)])


class TestRunningExample:
    def test_maps_on_2x2_with_paper_ii(self):
        """The paper's running example maps on a 2x2 CGRA with II = 3."""
        outcome = SatMapItMapper().map(paper_running_example(), CGRA.square(2))
        assert outcome.success
        assert outcome.ii == 3
        assert outcome.minimum_ii == 3
        assert outcome.mapping is not None
        assert outcome.mapping.violations() == []

    def test_register_allocation_succeeds(self):
        outcome = SatMapItMapper().map(paper_running_example(), CGRA.square(2))
        assert outcome.register_allocation is not None
        assert outcome.register_allocation.success
        assert outcome.mapping.registers  # register assignment recorded

    def test_larger_fabric_reaches_lower_ii(self):
        small = SatMapItMapper().map(paper_running_example(), CGRA.square(2))
        large = SatMapItMapper().map(paper_running_example(), CGRA.square(4))
        assert large.success
        assert large.ii <= small.ii


class TestBasicBehaviour:
    def test_single_node(self):
        dfg = DFG.from_edge_list("one", 1, [])
        outcome = SatMapItMapper().map(dfg, CGRA.square(2))
        assert outcome.success
        assert outcome.ii == 1

    def test_chain_on_single_pe(self):
        outcome = SatMapItMapper().map(chain(3), CGRA(rows=1, cols=1))
        assert outcome.success
        assert outcome.ii == 3

    def test_independent_nodes_fill_kernel(self):
        dfg = DFG.from_edge_list("independent", 8, [])
        outcome = SatMapItMapper().map(dfg, CGRA.square(2))
        assert outcome.success
        assert outcome.ii == 2  # 8 nodes / 4 PEs

    def test_recurrence_bounds_ii(self):
        dfg = DFG.from_edge_list("rec", 4, [(0, 1), (1, 2), (2, 3), (3, 0, 1)])
        outcome = SatMapItMapper().map(dfg, CGRA.square(4))
        assert outcome.success
        assert outcome.ii >= 4  # RecMII = 4

    def test_start_ii_override(self):
        outcome = SatMapItMapper().map(paper_running_example(), CGRA.square(2), start_ii=5)
        assert outcome.success
        assert outcome.ii == 5

    def test_outcome_summary_strings(self):
        outcome = SatMapItMapper().map(chain(2), CGRA.square(2))
        assert "II=" in outcome.summary()
        assert outcome.final_status == "mapped"

    def test_attempt_records(self):
        outcome = SatMapItMapper().map(paper_running_example(), CGRA.square(2))
        assert outcome.attempts
        final = outcome.attempts[-1]
        assert final.status == "SAT"
        assert final.num_variables > 0
        assert final.num_clauses > 0


class TestMappingsAreLegal:
    @pytest.mark.parametrize("kernel,size", [
        ("srand", 2), ("basicmath", 3), ("stringsearch", 2), ("nw", 3),
    ])
    def test_benchmark_kernels_map_legally(self, kernel, size):
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(
            get_kernel(kernel), CGRA.square(size)
        )
        assert outcome.success
        assert outcome.mapping.violations() == []
        assert outcome.ii >= outcome.minimum_ii

    def test_compiled_loop_end_to_end(self):
        dfg = compile_loop("acc = acc + a[i] * b[i]", name="dot")
        outcome = SatMapItMapper(MapperConfig(timeout=60)).map(dfg, CGRA.square(3))
        assert outcome.success
        assert outcome.mapping.violations() == []


class TestFailureModes:
    def test_max_ii_reached_reports_failure(self):
        # Five independent nodes cannot fit a single-PE CGRA with max_ii 3.
        dfg = DFG.from_edge_list("five", 5, [])
        config = MapperConfig(max_ii=3, max_extra_slack=0)
        outcome = SatMapItMapper(config).map(dfg, CGRA(rows=1, cols=1))
        assert not outcome.success
        assert outcome.final_status == "failed"
        assert all(a.status in ("UNSAT", "UNKNOWN") for a in outcome.attempts)

    def test_timeout_reported(self):
        config = MapperConfig(timeout=0.0)
        outcome = SatMapItMapper(config).map(get_kernel("gsm"), CGRA.square(3))
        assert not outcome.success
        assert outcome.final_status == "timeout"

    def test_timed_out_run_is_not_cached(self, tmp_path):
        config = MapperConfig(timeout=0.0, random_seed=0, cache_dir=str(tmp_path))
        outcome = SatMapItMapper(config).map(get_kernel("gsm"), CGRA.square(2))
        assert outcome.final_status == "timeout"
        assert list(tmp_path.glob("*.json")) == []

    def test_invalid_dfg_rejected(self):
        dfg = DFG()
        dfg.add_node(0)
        dfg.add_node(1)
        dfg.add_edge(0, 1)
        dfg.add_edge(1, 0)  # forward cycle
        from repro.exceptions import DFGError

        with pytest.raises(DFGError):
            SatMapItMapper().map(dfg, CGRA.square(2))

    def test_register_pressure_increases_ii(self):
        # One register per PE forces serialisation of long-lived values.
        dfg = compile_loop("acc = acc + a[i] * b[i] + c[i]", name="pressure")
        rich = SatMapItMapper().map(dfg, CGRA.square(3, registers_per_pe=8))
        poor = SatMapItMapper().map(dfg, CGRA.square(3, registers_per_pe=1))
        assert rich.success
        if poor.success:
            assert poor.ii >= rich.ii


class TestOptimality:
    """The SAT mapper finds the same optimal II as exhaustive enumeration."""

    @pytest.mark.parametrize("edges,num_nodes", [
        ([(0, 1), (1, 2)], 3),
        ([(0, 1), (0, 2), (1, 3), (2, 3)], 4),
        ([(0, 1), (1, 2), (2, 0, 1)], 3),
        ([], 5),
    ])
    def test_matches_exhaustive_oracle_on_2x2(self, edges, num_nodes):
        dfg = DFG.from_edge_list("tiny", num_nodes, edges)
        cgra = CGRA.square(2)
        sat = SatMapItMapper().map(dfg, cgra)
        oracle = ExhaustiveMapper(max_ii=6, timeout=30).map(dfg, cgra)
        assert sat.success and oracle.success
        assert sat.ii == oracle.ii


class TestConfigurationVariants:
    def test_strict_output_register_model_never_beats_relaxed(self):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        relaxed = SatMapItMapper(MapperConfig(enforce_output_register=False)).map(dfg, cgra)
        strict = SatMapItMapper(
            MapperConfig(enforce_output_register=True, neighbour_register_file_access=False)
        ).map(dfg, cgra)
        assert relaxed.success
        if strict.success:
            assert strict.ii >= relaxed.ii
            assert strict.mapping.violations(check_overwrite=True) == []

    def test_disable_register_allocation(self):
        outcome = SatMapItMapper(MapperConfig(run_register_allocation=False)).map(
            paper_running_example(), CGRA.square(2)
        )
        assert outcome.success
        assert outcome.register_allocation is None

    def test_pairwise_amo_gives_same_ii(self):
        from repro.sat.encodings import AMOEncoding

        dfg = paper_running_example()
        cgra = CGRA.square(2)
        sequential = SatMapItMapper().map(dfg, cgra)
        pairwise = SatMapItMapper(MapperConfig(amo_encoding=AMOEncoding.PAIRWISE)).map(dfg, cgra)
        assert sequential.ii == pairwise.ii

    def test_symmetry_breaking_does_not_change_ii(self):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        with_sym = SatMapItMapper(MapperConfig(symmetry_breaking=True)).map(dfg, cgra)
        without = SatMapItMapper(MapperConfig(symmetry_breaking=False)).map(dfg, cgra)
        assert with_sym.ii == without.ii

    def test_paper_iteration_span_restriction_never_lowers_ii(self):
        dfg = paper_running_example()
        cgra = CGRA.square(2)
        unrestricted = SatMapItMapper().map(dfg, cgra)
        restricted = SatMapItMapper(MapperConfig(max_iteration_span=1)).map(dfg, cgra)
        assert unrestricted.success
        if restricted.success:
            assert restricted.ii >= unrestricted.ii


class TestEscalatedAttemptCounters:
    def test_size_counters_sum_the_probe_and_the_escalated_group(self):
        """An escalated attempt encodes two groups (the sequential probe and
        the pairwise-optimised re-encode); all four encoding counters cover
        both."""
        from repro.core.encoder import EncoderConfig, MappingEncoder
        from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
        from repro.sat.encodings import AMOEncoding

        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        config = MapperConfig(amo_probe_conflicts=20, random_seed=0)
        outcome = SatMapItMapper(config).map(dfg, cgra)
        escalated = [attempt for attempt in outcome.attempts if attempt.escalated]
        assert escalated
        for attempt in escalated:
            kms = KernelMobilitySchedule.build(
                MobilitySchedule.build(dfg, slack=attempt.schedule_slack), attempt.ii
            )
            groups = [
                MappingEncoder(dfg, cgra, kms, EncoderConfig(amo_encoding=amo)).encode()
                for amo in (AMOEncoding.SEQUENTIAL, AMOEncoding.AUTO)
            ]
            assert attempt.num_variables == sum(g.stats.num_variables for g in groups)
            assert attempt.num_clauses == sum(g.stats.num_clauses for g in groups)
            assert attempt.duplicate_clauses_dropped == sum(
                g.stats.num_duplicate_clauses for g in groups
            )
            assert attempt.emission_batches == sum(g.stats.num_batches for g in groups)


class TestProofLogging:
    """DRAT proof logging: one trace per solver, kept for UNSAT attempts."""

    @staticmethod
    def _map_gsm(tmp_path, monkeypatch, size=2, **extra):
        # Decisive attempts, so gsm refutes IIs below the answer.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = MapperConfig(
            timeout=120.0, slack_conflict_limit=None,
            run_register_allocation=False, random_seed=0, proof=True, **extra,
        )
        return SatMapItMapper(config).map(get_kernel("gsm"), CGRA.square(size))

    def test_mapper_proof_digests_with_internal_backend(
        self, tmp_path, monkeypatch
    ):
        outcome = self._map_gsm(tmp_path, monkeypatch)
        assert outcome.final_status == "mapped"
        unsat = [a for a in outcome.attempts if a.status == "UNSAT"]
        assert unsat and all(a.proof_digest for a in unsat)
        # The trace goes to tempfile.mkstemp, which honours TMPDIR.
        assert outcome.proof_path is not None
        assert os.path.dirname(outcome.proof_path) == str(tmp_path)
        assert os.path.getsize(outcome.proof_path) > 0

    def test_unsat_attempt_trace_refutes_the_attempt_alone(
        self, tmp_path, monkeypatch
    ):
        """Each attempt's solver writes its own trace: re-encoding the
        refuted attempt alone gives a formula the trace refutes."""
        from pathlib import Path

        from repro.core.encoder import EncoderConfig, MappingEncoder
        from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
        from repro.sat.cnf import CNF
        from repro.sat.drat import check_proof, proof_digest
        from repro.sat.encodings import AMOEncoding

        dfg, cgra = get_kernel("gsm"), CGRA.square(2)
        outcome = self._map_gsm(tmp_path, monkeypatch)
        attempt = [a for a in outcome.attempts if a.status == "UNSAT"][-1]
        # gsm@2x2 II 7 slack 0 is refuted inside its sequential probe.
        assert (attempt.ii, attempt.schedule_slack) == (7, 0)
        assert not attempt.escalated
        trace = Path(outcome.proof_path).read_text()
        assert proof_digest(trace) == attempt.proof_digest

        kms = KernelMobilitySchedule.build(
            MobilitySchedule.build(dfg, slack=attempt.schedule_slack), attempt.ii
        )
        cnf = CNF()
        selector = cnf.new_var()  # the fresh solver's first variable
        assert selector == attempt.selector
        MappingEncoder(
            dfg, cgra, kms, EncoderConfig(amo_encoding=AMOEncoding.SEQUENTIAL),
            sink=cnf, selector=selector,
        ).encode()
        assert cnf.num_clauses == attempt.num_clauses
        result = check_proof(cnf.clauses, trace, assumptions=[selector])
        assert result.ok, result.reason

    def test_only_unsat_attempts_leave_a_trace(self, tmp_path, monkeypatch):
        outcome = self._map_gsm(tmp_path, monkeypatch)
        unsat = [a for a in outcome.attempts if a.status == "UNSAT"]
        assert len(unsat) < len(outcome.attempts)
        assert len(list(tmp_path.glob("*.drat"))) == len(unsat)

    def test_mapper_records_proof_digests_and_cache_entry(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        outcome = self._map_gsm(tmp_path, monkeypatch, cache_dir=str(cache))
        assert outcome.final_status == "mapped"
        unsat = [a for a in outcome.attempts if a.status == "UNSAT"]
        entries = list(cache.glob("*.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["unsat_proof_digests"] == {
            f"{a.ii}/{a.schedule_slack}": a.proof_digest for a in unsat
        }

    def test_cache_entry_keeps_every_slack_level_digest(
        self, tmp_path, monkeypatch
    ):
        """gsm@4x4 refutes II 2 at two slack levels: the entry keeps both
        digests, not only the last one."""
        cache = tmp_path / "cache"
        outcome = self._map_gsm(
            tmp_path, monkeypatch, size=4, cache_dir=str(cache)
        )
        assert outcome.final_status == "mapped"
        (entry_path,) = cache.glob("*.json")
        digests = json.loads(entry_path.read_text())["unsat_proof_digests"]
        ii2 = {key: value for key, value in digests.items()
               if key.startswith("2/")}
        assert len(ii2) == 2
        assert len(set(ii2.values())) == 2
