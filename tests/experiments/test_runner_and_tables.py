"""Tests for the experiment harness (runner, tables, report)."""

import pytest

import dataclasses

from repro.experiments.report import (
    ReportOptions,
    render_markdown_report,
    render_timing_report,
    solver_reuse_totals,
    write_markdown_report,
)
from repro.experiments.runner import (
    FAILURE_STATUSES,
    HOMOGENEOUS,
    MEM_EDGE,
    MUL_SPARSE,
    PATHSEEKER,
    RAMP,
    SAT_MAPIT,
    ExperimentConfig,
    RunRecord,
    SweepResult,
    build_fabric,
    build_mapper,
    failure_record,
    run_single,
    run_sweep,
)
from repro.experiments.tables import (
    figure6_rows,
    headline_winrate,
    mapping_time_rows,
    never_worse,
    render_figure6,
    render_headline,
    render_mapping_time_table,
    render_scenario_comparison,
    scenario_rows,
)

FAST_CONFIG = ExperimentConfig(
    kernels=("srand", "basicmath"),
    sizes=(2, 3),
    timeout=30.0,
    pathseeker_repeats=1,
)


def synthetic_sweep() -> SweepResult:
    """Hand-built sweep covering wins, ties and heuristic failures."""
    config = ExperimentConfig(kernels=("a", "b", "c"), sizes=(2,), timeout=1.0)
    sweep = SweepResult(config=config)
    rows = [
        # kernel a: tie
        RunRecord("a", 2, SAT_MAPIT, "mapped", 3, 1.0, 3, 1, 10),
        RunRecord("a", 2, RAMP, "mapped", 3, 0.5, 3, 1, 10),
        RunRecord("a", 2, PATHSEEKER, "mapped", 4, 0.4, 3, 1, 10),
        # kernel b: SAT-MapIt strictly better
        RunRecord("b", 2, SAT_MAPIT, "mapped", 4, 2.0, 4, 2, 20),
        RunRecord("b", 2, RAMP, "mapped", 6, 1.0, 4, 3, 20),
        RunRecord("b", 2, PATHSEEKER, "mapped", 5, 1.5, 4, 3, 20),
        # kernel c: heuristics fail, SAT-MapIt maps (with solver reuse)
        RunRecord("c", 2, SAT_MAPIT, "mapped", 10, 5.0, 10, 3, 40,
                  incremental_resolves=2),
        RunRecord("c", 2, RAMP, "failed", None, 3.0, 10, 8, 40),
        RunRecord("c", 2, PATHSEEKER, "timeout", None, 6.0, 10, 9, 40),
    ]
    sweep.records.extend(rows)
    return sweep


class TestSearchAndCachePlumbing:
    def test_run_single_with_cache(self, tmp_path):
        config = ExperimentConfig(
            kernels=("srand",), sizes=(2,), timeout=30.0,
            pathseeker_repeats=1, cache_dir=str(tmp_path / "cache"),
        )
        first = run_single("srand", 2, SAT_MAPIT, config)
        assert not first.cache_hit
        second = run_single("srand", 2, SAT_MAPIT, config)
        assert second.cache_hit
        assert second.ii == first.ii

    def test_baseline_records_have_default_cache_fields(self):
        config = ExperimentConfig(
            kernels=("srand",), sizes=(2,), timeout=30.0, pathseeker_repeats=1
        )
        record = run_single("srand", 2, RAMP, config)
        assert not record.cache_hit

    def test_report_renders_cache_section(self, tmp_path):
        config = ExperimentConfig(
            kernels=("srand",), sizes=(2,), timeout=30.0,
            pathseeker_repeats=1, cache_dir=str(tmp_path / "cache"),
        )
        sweep = run_sweep(config)
        sweep.records.extend(run_sweep(config).records)
        text = render_markdown_report(sweep)
        assert "## Mapping cache" in text
        assert "**1** hit(s)" in text
        assert "strategy" not in text

    def test_run_single_records_seed_metrics(self):
        config = ExperimentConfig(
            kernels=("gsm",), sizes=(2,), timeout=60.0,
            pathseeker_repeats=1, seed_heuristic=True,
        )
        record = run_single("gsm", 2, SAT_MAPIT, config)
        assert record.succeeded
        assert record.seed_ii is not None
        assert record.seed_time > 0

    def test_report_renders_seeding_section(self):
        config = ExperimentConfig(
            kernels=("gsm",), sizes=(2,), timeout=60.0,
            pathseeker_repeats=1, seed_heuristic=True,
        )
        sweep = run_sweep(config)
        text = render_markdown_report(sweep)
        assert "## Heuristic seeding" in text
        assert "tuner" not in text
        assert "pre-passes yielding a validated seed mapping" in text
        assert "* heuristic II seeding: on" in text


class TestRunnerHelpers:
    def test_build_mapper_names(self):
        config = ExperimentConfig(timeout=5.0)
        assert build_mapper(SAT_MAPIT, config).name == "SAT-MapIt"
        assert build_mapper(RAMP, config).name == "RAMP"
        assert build_mapper(PATHSEEKER, config).name == "PathSeeker"

    def test_build_mapper_unknown(self):
        with pytest.raises(ValueError):
            build_mapper("nope", ExperimentConfig())

    def test_run_single_satmapit(self):
        record = run_single("srand", 2, SAT_MAPIT, FAST_CONFIG)
        assert record.succeeded
        assert record.ii is not None
        assert record.ii >= record.minimum_ii
        assert record.kernel == "srand"
        assert record.num_nodes > 0
        # Solver reuse is recorded (zero when the run needed no retries,
        # but never negative).
        assert record.incremental_resolves >= 0

    def test_run_single_baseline_has_no_reuse_metrics(self):
        record = run_single("srand", 2, RAMP, FAST_CONFIG)
        assert record.incremental_resolves == 0

    def test_run_single_pathseeker_repeats(self):
        config = ExperimentConfig(
            kernels=("srand",), sizes=(2,), timeout=20.0, pathseeker_repeats=2
        )
        record = run_single("srand", 2, PATHSEEKER, config)
        assert record.succeeded


    @pytest.mark.parametrize("status", FAILURE_STATUSES)
    def test_failure_record_keeps_the_items_coordinates(self, status):
        from repro.farm.journal import WorkItem

        item = WorkItem(index=5, id="x" * 64, kernel="gsm", size=3,
                        mapper=RAMP, scenario=MEM_EDGE)
        record = failure_record(item, status, "killed by SIGKILL")
        assert (record.kernel, record.size, record.mapper, record.scenario) == (
            "gsm", 3, RAMP, MEM_EDGE
        )
        assert (record.status, record.failure) == (status, "killed by SIGKILL")
        assert record.ii is None and not record.succeeded
        assert (record.minimum_ii, record.attempts, record.mapping_time) == (
            0, 0, 0.0
        )
        assert not record.resumed


class TestSweep:
    def test_small_sweep_produces_all_records(self):
        sweep = run_sweep(FAST_CONFIG)
        assert len(sweep.records) == 2 * 2 * 3
        for record in sweep.records:
            assert record.status in ("mapped", "timeout", "failed")

    def test_best_soa_and_lookup(self):
        sweep = synthetic_sweep()
        assert sweep.record("a", 2, SAT_MAPIT).ii == 3
        assert sweep.best_soa("a", 2).ii == 3
        assert sweep.best_soa("c", 2).ii is None
        assert sweep.pairs() == [("a", 2), ("b", 2), ("c", 2)]


class TestTables:
    def test_figure6_rows(self):
        rows = figure6_rows(synthetic_sweep(), 2)
        assert len(rows) == 3
        by_kernel = {row.kernel: row for row in rows}
        assert by_kernel["a"].tie
        assert not by_kernel["a"].satmapit_wins
        assert by_kernel["b"].satmapit_wins
        assert by_kernel["c"].satmapit_wins  # mapped where heuristics failed

    def test_headline_winrate(self):
        wins, total, fraction = headline_winrate(synthetic_sweep())
        assert (wins, total) == (2, 3)
        assert fraction == pytest.approx(2 / 3)

    def test_never_worse(self):
        assert never_worse(synthetic_sweep())

    def test_mapping_time_rows(self):
        rows = mapping_time_rows(synthetic_sweep(), 2)
        assert len(rows) == 3
        assert rows[0].delta == pytest.approx(rows[0].satmapit_time - rows[0].soa_time)

    def test_render_figure6_marks_failures(self):
        text = render_figure6(synthetic_sweep(), 2)
        assert "x(" in text
        assert "SAT-MapIt" in text

    def test_render_time_table(self):
        text = render_mapping_time_table(synthetic_sweep(), 2, number="I")
        assert "Table I" in text
        assert "benchmark" in text

    def test_render_headline(self):
        text = render_headline(synthetic_sweep())
        assert "47.72%" in text


class TestReport:
    def test_markdown_report_contains_sections(self):
        text = render_markdown_report(synthetic_sweep())
        assert "# EXPERIMENTS" in text
        assert "Figure 6" in text
        assert "Headline" in text
        assert "| benchmark |" in text

    def test_solver_reuse_totals_and_section(self):
        sweep = synthetic_sweep()
        assert solver_reuse_totals(sweep) == 2
        text = render_markdown_report(sweep)
        assert "## Register-allocation retries" in text
        assert "retries served without re-encoding: **2**" in text
        assert "learned clauses carried" not in text

    def test_farm_section_lists_failure_records(self):
        from repro.farm.leases import FarmStats

        sweep = synthetic_sweep()
        assert "## Work-queue farm" not in render_markdown_report(sweep)
        sweep.farm = FarmStats(items=9, completed=2, skipped=7, retries=1,
                               deadlines_expired=1, resumed=True)
        sweep.records[7] = dataclasses.replace(
            sweep.records[7], status="deadline", ii=None,
            failure="deadline of 11.0s exceeded (worker 1 reaped)",
        )
        text = render_markdown_report(sweep)
        assert "## Work-queue farm" in text
        assert "completed this run / resumed from the journal: **2** / **7**" in text
        assert "run again by the resume: **1**" in text
        assert "worker crashes / deadlines expired: **0** / **1**" in text
        assert "records without a mapper verdict: **1**" in text
        assert ("  * c 2x2 RAMP [homogeneous] deadline: "
                "deadline of 11.0s exceeded (worker 1 reaped)") in text

    @pytest.mark.parametrize(
        "status, listed",
        [(status, True) for status in FAILURE_STATUSES]
        + [("failed", False), ("timeout", False)],
    )
    def test_farm_section_lists_only_records_without_a_verdict(
        self, status, listed
    ):
        from repro.farm.leases import FarmStats

        sweep = synthetic_sweep()
        sweep.farm = FarmStats(items=9, completed=9)
        sweep.records[4] = dataclasses.replace(
            sweep.records[4], status=status, ii=None, failure="why"
        )
        text = render_markdown_report(sweep)
        line = f"  * b 2x2 RAMP [homogeneous] {status}: why"
        assert (line in text) is listed
        # The heuristics' own failed/timeout verdicts in kernel c are
        # mapper answers, not farm failures.
        assert f"records without a mapper verdict: **{int(listed)}**" in text

    def test_committed_report_is_byte_stable(self):
        """Two renders from the same records are byte-identical, and so are
        renders from records that differ only in mapping time."""
        sweep = synthetic_sweep()
        options = ReportOptions(timings=False)
        first = render_markdown_report(sweep, options)
        assert render_markdown_report(sweep, options).encode() == first.encode()
        slower = SweepResult(config=sweep.config)
        slower.records.extend(
            dataclasses.replace(record, mapping_time=record.mapping_time * 3 + 0.7)
            for record in sweep.records
        )
        assert render_markdown_report(slower, options).encode() == first.encode()
        assert "mapping time" not in first
        timings = render_timing_report(sweep)
        assert "### Table I — mapping time (seconds) on the 2x2 CGRA" in timings
        assert render_timing_report(slower) != timings

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        write_markdown_report(synthetic_sweep(), str(path))
        assert path.read_text().startswith("# EXPERIMENTS")


class TestScenarios:
    def scenario_sweep(self) -> SweepResult:
        config = ExperimentConfig(
            kernels=("a",), sizes=(2,), timeout=1.0,
            scenarios=(HOMOGENEOUS, MEM_EDGE),
        )
        sweep = SweepResult(config=config)
        sweep.records.extend([
            RunRecord("a", 2, SAT_MAPIT, "mapped", 3, 1.0, 3, 1, 10),
            RunRecord("a", 2, SAT_MAPIT, "mapped", 4, 1.5, 3, 2, 10,
                      scenario=MEM_EDGE),
        ])
        return sweep

    def test_build_fabric(self):
        assert build_fabric(HOMOGENEOUS, 3).is_homogeneous
        het = build_fabric(MEM_EDGE, 3)
        assert not het.is_homogeneous
        assert het.name == "mem_edge_3x3"
        assert not build_fabric(MUL_SPARSE, 4).is_homogeneous
        with pytest.raises(ValueError, match="unknown architecture scenario"):
            build_fabric("exotic", 4)

    def test_record_lookup_is_scenario_aware(self):
        sweep = self.scenario_sweep()
        homogeneous = sweep.record("a", 2, SAT_MAPIT)
        heterogeneous = sweep.record("a", 2, SAT_MAPIT, MEM_EDGE)
        assert homogeneous.ii == 3
        assert heterogeneous.ii == 4

    def test_scenario_rows_and_penalty(self):
        rows = scenario_rows(self.scenario_sweep(), 2)
        assert len(rows) == 1
        assert rows[0].ii_for(HOMOGENEOUS) == 3
        assert rows[0].ii_for(MEM_EDGE) == 4
        assert rows[0].ii_penalty == 1

    def test_render_scenario_comparison(self):
        text = render_scenario_comparison(self.scenario_sweep(), 2)
        assert "mem_edge" in text
        assert "+1" in text

    def test_markdown_report_gets_scenario_section(self):
        text = render_markdown_report(self.scenario_sweep())
        assert "Heterogeneous fabrics" in text
        assert "| a | 3 | 4 | +1 |" in text

    def test_run_single_with_mem_edge_scenario(self):
        record = run_single("srand", 2, SAT_MAPIT, FAST_CONFIG, scenario=MEM_EDGE)
        # A 2x2 mem_edge fabric is all boundary, so behaviour matches the
        # homogeneous run while still exercising the scenario plumbing.
        assert record.scenario == MEM_EDGE
        assert record.status == "mapped"

    def test_sweep_iterates_scenarios(self):
        config = ExperimentConfig(
            kernels=("srand",), sizes=(2,), timeout=20.0,
            mappers=(SAT_MAPIT,), pathseeker_repeats=1,
            scenarios=(HOMOGENEOUS, MEM_EDGE),
        )
        sweep = run_sweep(config)
        assert len(sweep.records) == 2
        assert {entry.scenario for entry in sweep.records} == {HOMOGENEOUS, MEM_EDGE}

    def test_heterogeneous_only_sweep_still_renders_tables(self):
        """A sweep run purely on a heterogeneous scenario gets Figure 6 too."""
        config = ExperimentConfig(kernels=("a",), sizes=(2,), timeout=1.0,
                                  scenarios=(MEM_EDGE,))
        sweep = SweepResult(config=config)
        sweep.records.extend([
            RunRecord("a", 2, SAT_MAPIT, "mapped", 4, 1.5, 3, 2, 10,
                      scenario=MEM_EDGE),
            RunRecord("a", 2, RAMP, "mapped", 5, 0.5, 3, 2, 10,
                      scenario=MEM_EDGE),
        ])
        rows = figure6_rows(sweep, 2)
        assert len(rows) == 1
        assert rows[0].satmapit_ii == 4 and rows[0].soa_ii == 5
        wins, total, _ = headline_winrate(sweep)
        assert (wins, total) == (1, 1)

    def test_missing_scenario_record_renders_dash(self):
        config = ExperimentConfig(kernels=("a",), sizes=(2,), timeout=1.0,
                                  scenarios=(HOMOGENEOUS, MEM_EDGE))
        sweep = SweepResult(config=config)
        sweep.records.append(
            RunRecord("a", 2, SAT_MAPIT, "mapped", 3, 1.0, 3, 1, 10))
        text = render_scenario_comparison(sweep, 2)
        assert "x(II cap)" not in text
