"""Perf-harness gate semantics: the suite cannot silently shrink."""

from __future__ import annotations

import pytest

from repro.experiments.perf import PINNED_SUITE, QUICK_SUITE, SCHEMA, compare


def _doc(cases: list[dict]) -> dict:
    return {"schema": SCHEMA, "suite": "default", "cases": cases}


def _case(name: str, wall: float, ii: int | None = 3, bounded: bool = False) -> dict:
    return {"name": name, "wall_s": wall, "ii": ii, "bounded": bounded}


class TestCompareGate:
    def test_identical_runs_pass(self):
        doc = _doc([_case("a@3x3", 1.0)])
        ok, lines = compare(doc, doc)
        assert ok
        assert any("a@3x3" in line for line in lines)

    def test_gross_slowdown_fails(self):
        ok, lines = compare(
            _doc([_case("a@3x3", 1.0)]), _doc([_case("a@3x3", 3.5)])
        )
        assert not ok
        assert any("FAIL" in line for line in lines)

    def test_fallback_to_python_core_is_reported_and_caught(self):
        # A run that fell back to the Python engine is several times slower
        # on the solve-bound cases, so the slowdown gate fails it.
        base = dict(_doc([_case("a@3x3", 1.0)]), core="native")
        current = dict(_doc([_case("a@3x3", 8.0)]), core="python")
        ok, lines = compare(base, current)
        assert not ok
        assert "solver core changed: native -> python" in lines

    def test_ii_change_fails(self):
        ok, lines = compare(
            _doc([_case("a@3x3", 1.0, ii=3)]),
            _doc([_case("a@3x3", 1.0, ii=4)]),
        )
        assert not ok
        assert any("II changed" in line for line in lines)

    def test_matching_search_counters_pass(self):
        case = dict(_case("a@3x3", 1.0), status="mapped", conflicts=40,
                    propagations=9000)
        ok, lines = compare(_doc([case]), _doc([dict(case, wall_s=1.1)]))
        assert ok
        assert not any("changed" in line for line in lines)

    @pytest.mark.parametrize("counter", ["conflicts", "propagations"])
    def test_search_counter_drift_fails(self, counter):
        """A completed case whose trajectory moved fails even when its wall
        time and II are unchanged, and the report names the counter."""
        case = dict(_case("a@3x3", 1.0), status="mapped", conflicts=40,
                    propagations=9000)
        drifted = dict(case, **{counter: case[counter] + 1})
        ok, lines = compare(_doc([case]), _doc([drifted]))
        assert not ok
        assert any(
            line.startswith("a@3x3:") and f"{counter} changed" in line
            and "FAIL" in line
            for line in lines
        )

    def test_counter_drift_ignored_when_a_side_did_not_complete(self):
        base = dict(_case("a@3x3", 1.0), status="mapped", conflicts=40,
                    propagations=9000)
        timed_out = dict(base, status="timeout", conflicts=7)
        bounded = dict(base, bounded=True, conflicts=7)
        assert compare(_doc([base]), _doc([timed_out]))[0]
        assert compare(_doc([dict(base, bounded=True)]), _doc([bounded]))[0]

    def test_bounded_cases_exempt_from_ii_gate(self):
        ok, _ = compare(
            _doc([_case("a@3x3#c1500", 1.0, ii=None, bounded=True)]),
            _doc([_case("a@3x3#c1500", 1.0, ii=3, bounded=True)]),
        )
        assert ok

    def test_new_case_is_informational(self):
        ok, lines = compare(
            _doc([_case("a@3x3", 1.0)]),
            _doc([_case("a@3x3", 1.0), _case("b@3x3", 1.0)]),
        )
        assert ok
        assert any("new case" in line for line in lines)

    def test_missing_case_is_a_hard_failure(self):
        """A baseline case absent from the current run must fail the gate —
        deleting cases would otherwise silently shrink perf coverage."""
        ok, lines = compare(
            _doc([_case("a@3x3", 1.0), _case("b@3x3", 1.0)]),
            _doc([_case("a@3x3", 1.0)]),
        )
        assert not ok
        assert any("missing from current run (FAIL)" in line for line in lines)

    def test_sub_floor_cases_never_fail_on_time(self):
        ok, lines = compare(
            _doc([_case("tiny@2x2", 0.004)]), _doc([_case("tiny@2x2", 0.4)])
        )
        assert ok
        assert any("below gate floor" in line for line in lines)


class TestSuiteShape:
    def test_quick_suite_is_subset(self):
        names = {case.name for case in PINNED_SUITE}
        assert {case.name for case in QUICK_SUITE} <= names

    def test_seeded_cases_have_unseeded_twins(self):
        """Every seeded case needs its same-(kernel, size) unseeded twin so
        run_suite can annotate speedup_vs_unseeded."""
        unseeded = {
            (case.kernel, case.size)
            for case in PINNED_SUITE
            if not case.bounded and not case.seeded
        }
        seeded_cases = [case for case in PINNED_SUITE if case.seeded]
        assert len(seeded_cases) >= 2, (
            "the pinned suite must measure at least two seeded twins"
        )
        for case in seeded_cases:
            assert (case.kernel, case.size) in unseeded, case.name


class TestSuiteAnnotations:
    """run_suite derives twin speedups and throughput from the records."""

    def _suite_doc(self, monkeypatch, results: dict[str, dict]):
        from repro.experiments import perf

        def fake_run_case(case, repeats=3):
            record = {
                "name": case.name,
                "kernel": case.kernel,
                "size": case.size,
                "bounded": case.bounded,
                "seeded": case.seeded,
                "status": "mapped",
                "ii": 3,
                "wall_s": 1.0,
                "solve_s": 0.5,
                "encode_s": 0.1,
                "conflicts": 10,
                "propagations": 100,
            }
            record.update(results.get(case.name, {}))
            return record

        monkeypatch.setattr(perf, "run_case", fake_run_case)
        return perf

    def test_speedup_vs_unseeded_annotation(self, monkeypatch):
        perf = self._suite_doc(
            monkeypatch,
            {"gsm@2x2": {"wall_s": 2.0}, "gsm@2x2!seeded": {"wall_s": 0.5}},
        )
        doc = perf.run_suite("quick", repeats=1)
        by_name = {record["name"]: record for record in doc["cases"]}
        assert by_name["gsm@2x2!seeded"]["speedup_vs_unseeded"] == 4.0
        assert "speedup_vs_unseeded" not in by_name["gsm@2x2"]

    def test_kernels_mapped_per_minute_total(self, monkeypatch):
        perf = self._suite_doc(monkeypatch, {})
        doc = perf.run_suite("quick", repeats=1)
        completing = [
            record
            for record in doc["cases"]
            if not record["bounded"] and record["status"] == "mapped"
        ]
        wall = sum(record["wall_s"] for record in completing)
        expected = round(60.0 * len(completing) / wall, 2)
        assert doc["totals"]["kernels_mapped_per_minute"] == expected
        assert expected > 0

    def test_bounded_probes_excluded_from_throughput(self, monkeypatch):
        perf = self._suite_doc(
            monkeypatch,
            {
                "sha@2x2#c1500": {"wall_s": 1000.0, "status": "timeout"},
                "sha2@2x2#c1500": {"wall_s": 1000.0, "status": "timeout"},
            },
        )
        doc = perf.run_suite("quick", repeats=1)
        # Three completing 1s cases — 3 kernels per 3 s of mapper wall, i.e.
        # 60/minute — regardless of the huge bounded-probe walls.
        assert doc["totals"]["kernels_mapped_per_minute"] == 60.0


@pytest.mark.slow
def test_check_strategy_equivalence_quick_suite():
    from repro.experiments.perf import check_strategy_equivalence

    ok, lines = check_strategy_equivalence("quick")
    assert ok, lines
    assert lines


class TestScalePanel:
    """The scale panel maps its rows exactly and stamps how it ran."""

    def test_scale_row_schema(self, monkeypatch):
        from repro.core.mapper import MapperConfig
        from repro.search.cache import config_fingerprint

        # The suite's cases are faked; only the scale row runs for real.
        perf = TestSuiteAnnotations()._suite_doc(monkeypatch, {})
        case = perf.ScaleCase("srand@3x3", "srand", 3, timeout=60.0)
        monkeypatch.setattr(perf, "SCALE_PANEL", (case,))
        doc = perf.run_suite("quick", repeats=1, scale=True)
        (row,) = doc["scale_panel"]
        assert set(row) == {
            "name", "kernel", "size", "core", "config", "status", "ii",
            "minimum_ii", "wall_s", "timeout_s", "validated",
        }
        assert (row["name"], row["kernel"], row["size"]) == ("srand@3x3", "srand", 3)
        assert row["status"] == "mapped"
        assert row["minimum_ii"] <= row["ii"]
        assert row["timeout_s"] == 60.0
        assert row["validated"] is True
        # The stamp is the semantic config the row ran with: the production
        # config, register allocation on (the suite's cases run it off).
        assert row["config"] == config_fingerprint(
            MapperConfig(timeout=60.0, random_seed=perf.BENCH_SEED)
        )
        assert row["config"]["run_register_allocation"] is True

    def test_scale_panel_empty_without_flag(self, monkeypatch):
        perf = TestSuiteAnnotations()._suite_doc(monkeypatch, {})

        def fail(case):
            raise AssertionError("scale panel ran without scale=True")

        monkeypatch.setattr(perf, "run_scale_case", fail)
        assert perf.run_suite("quick", repeats=1)["scale_panel"] == []
