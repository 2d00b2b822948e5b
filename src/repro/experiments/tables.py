"""Turning sweep results into the paper's tables and figures.

* Figure 6: achieved II per benchmark, SAT-MapIt vs best-of(RAMP, PathSeeker),
  one panel per mesh size, with explicit markers for timeouts (the paper's red
  cross) and II-cap failures (black cross).
* Tables I–IV: mapping time per benchmark for one mesh size, with the delta
  column (negative = SAT-MapIt faster).
* The Section-V headline: the fraction of (benchmark, size) pairs where
  SAT-MapIt strictly improves on the best heuristic (lower II, or a valid
  mapping where none was found).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import HOMOGENEOUS, SAT_MAPIT, RunRecord, SweepResult

TIMEOUT_MARK = "x(timeout)"
FAILED_MARK = "x(II cap)"


@dataclass(frozen=True)
class Figure6Row:
    """One bar pair of Figure 6: a benchmark on one mesh size."""

    kernel: str
    size: int
    soa_ii: int | None
    soa_status: str
    satmapit_ii: int | None
    satmapit_status: str

    @property
    def satmapit_wins(self) -> bool:
        """Strictly better: lower II, or mapped where the heuristics failed."""
        if self.satmapit_ii is None:
            return False
        if self.soa_ii is None:
            return True
        return self.satmapit_ii < self.soa_ii

    @property
    def tie(self) -> bool:
        return self.satmapit_ii is not None and self.satmapit_ii == self.soa_ii


@dataclass(frozen=True)
class TimeRow:
    """One row of Tables I-IV: mapping time on one mesh size."""

    kernel: str
    soa_time: float
    satmapit_time: float

    @property
    def delta(self) -> float:
        return self.satmapit_time - self.soa_time


# ----------------------------------------------------------------------
# Data extraction
# ----------------------------------------------------------------------
def _base_scenario(sweep: SweepResult) -> str:
    """The scenario the headline tables describe: first configured one.

    Usually ``homogeneous``; a sweep run purely on a heterogeneous scenario
    still gets Figure 6 / Tables I-IV for that fabric.
    """
    scenarios = sweep.config.scenarios or (HOMOGENEOUS,)
    return scenarios[0]


def figure6_rows(sweep: SweepResult, size: int) -> list[Figure6Row]:
    """The Figure-6 panel for one mesh size."""
    scenario = _base_scenario(sweep)
    rows: list[Figure6Row] = []
    for kernel in sweep.config.kernels:
        sat = sweep.record(kernel, size, SAT_MAPIT, scenario)
        soa = sweep.best_soa(kernel, size, scenario)
        if sat is None and soa is None:
            continue
        rows.append(
            Figure6Row(
                kernel=kernel,
                size=size,
                soa_ii=soa.ii if soa is not None else None,
                soa_status=soa.status if soa is not None else "missing",
                satmapit_ii=sat.ii if sat is not None else None,
                satmapit_status=sat.status if sat is not None else "missing",
            )
        )
    return rows


def mapping_time_rows(sweep: SweepResult, size: int) -> list[TimeRow]:
    """The Table I-IV rows for one mesh size."""
    scenario = _base_scenario(sweep)
    rows: list[TimeRow] = []
    for kernel in sweep.config.kernels:
        sat = sweep.record(kernel, size, SAT_MAPIT, scenario)
        soa = sweep.best_soa(kernel, size, scenario)
        if sat is None or soa is None:
            continue
        rows.append(
            TimeRow(
                kernel=kernel,
                soa_time=soa.mapping_time,
                satmapit_time=sat.mapping_time,
            )
        )
    return rows


def headline_winrate(sweep: SweepResult) -> tuple[int, int, float]:
    """(wins, total pairs, fraction) of cases where SAT-MapIt is strictly better.

    The paper reports 47.72 % over its 44 (benchmark, size) pairs; strictly
    better means a lower II or a valid mapping where the heuristics found
    none.
    """
    wins = 0
    total = 0
    for size in sweep.config.sizes:
        for row in figure6_rows(sweep, size):
            total += 1
            if row.satmapit_wins:
                wins += 1
    fraction = wins / total if total else 0.0
    return wins, total, fraction


def never_worse(sweep: SweepResult) -> bool:
    """Whether SAT-MapIt's II is <= the best heuristic II on every pair."""
    for size in sweep.config.sizes:
        for row in figure6_rows(sweep, size):
            if row.satmapit_ii is None and row.soa_ii is not None:
                return False
            if (
                row.satmapit_ii is not None
                and row.soa_ii is not None
                and row.satmapit_ii > row.soa_ii
            ):
                return False
    return True


@dataclass(frozen=True)
class ScenarioRow:
    """SAT-MapIt II for one kernel across architecture scenarios."""

    kernel: str
    size: int
    #: ``scenario -> (ii or None, status)`` in the sweep's scenario order.
    results: tuple[tuple[str, int | None, str], ...]

    def ii_for(self, scenario: str) -> int | None:
        for name, ii, _status in self.results:
            if name == scenario:
                return ii
        return None

    @property
    def ii_penalty(self) -> int | None:
        """Extra II the first heterogeneous scenario costs vs homogeneous.

        ``None`` when either side has no mapping (incomparable).
        """
        base = self.ii_for(HOMOGENEOUS)
        others = [ii for name, ii, _ in self.results if name != HOMOGENEOUS]
        if base is None or not others or others[0] is None:
            return None
        return others[0] - base


def scenario_rows(sweep: SweepResult, size: int) -> list[ScenarioRow]:
    """SAT-MapIt II per kernel and scenario for one mesh size."""
    scenarios = sweep.config.scenarios or (HOMOGENEOUS,)
    rows: list[ScenarioRow] = []
    for kernel in sweep.config.kernels:
        results = []
        for scenario in scenarios:
            entry = sweep.record(kernel, size, SAT_MAPIT, scenario)
            if entry is None:
                results.append((scenario, None, "missing"))
            else:
                results.append((scenario, entry.ii, entry.status))
        if any(status != "missing" for _, _, status in results):
            rows.append(ScenarioRow(kernel=kernel, size=size, results=tuple(results)))
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _ii_cell(ii: int | None, status: str) -> str:
    if ii is not None:
        return str(ii)
    return TIMEOUT_MARK if status == "timeout" else FAILED_MARK


def render_figure6(sweep: SweepResult, size: int) -> str:
    """ASCII rendering of one Figure-6 panel (plus a bar chart)."""
    rows = figure6_rows(sweep, size)
    lines = [
        f"Figure 6 — achieved II on a {size}x{size} CGRA (lower is better)",
        f"{'benchmark':13s} {'RAMP/PathSeeker':>16s} {'SAT-MapIt':>10s}   bars",
    ]
    scale = max(
        [row.soa_ii or 0 for row in rows] + [row.satmapit_ii or 0 for row in rows] + [1]
    )
    for row in rows:
        soa_cell = _ii_cell(row.soa_ii, row.soa_status)
        sat_cell = _ii_cell(row.satmapit_ii, row.satmapit_status)
        soa_bar = "#" * (row.soa_ii or scale)
        sat_bar = "*" * (row.satmapit_ii or scale)
        lines.append(f"{row.kernel:13s} {soa_cell:>16s} {sat_cell:>10s}   |{soa_bar}")
        lines.append(f"{'':13s} {'':>16s} {'':>10s}   |{sat_bar}")
    lines.append("legend: # best of RAMP/PathSeeker, * SAT-MapIt, x = no mapping found")
    return "\n".join(lines)


def render_mapping_time_table(sweep: SweepResult, size: int, number: str = "") -> str:
    """ASCII rendering of one mapping-time table (Tables I-IV)."""
    rows = mapping_time_rows(sweep, size)
    title = f"Table {number} — mapping time (seconds) on a {size}x{size} CGRA"
    lines = [
        title.replace("  ", " "),
        f"{'benchmark':13s} {'[RAMP/PS]':>12s} {'SAT-MapIt':>12s} {'delta':>12s}",
    ]
    for row in rows:
        lines.append(
            f"{row.kernel:13s} {row.soa_time:12.2f} {row.satmapit_time:12.2f} "
            f"{row.delta:12.2f}"
        )
    return "\n".join(lines)


def render_scenario_comparison(sweep: SweepResult, size: int) -> str:
    """SAT-MapIt II across architecture scenarios on one mesh size.

    Shows what capability constraints (memory ports on the edge, sparse
    multipliers) cost in achieved II relative to the homogeneous fabric.
    """
    scenarios = sweep.config.scenarios or (HOMOGENEOUS,)
    rows = scenario_rows(sweep, size)
    header = f"{'benchmark':13s} " + " ".join(
        f"{scenario:>12s}" for scenario in scenarios
    ) + f" {'ΔII':>6s}"
    lines = [
        f"Scenario comparison — SAT-MapIt II on {size}x{size} fabrics "
        "(lower is better)",
        header,
    ]
    for row in rows:
        cells = []
        for _scenario, ii, status in row.results:
            if ii is not None:
                cell = str(ii)
            elif status == "missing":
                cell = "-"
            else:
                cell = _ii_cell(ii, status)
            cells.append(f"{cell:>12}")
        penalty = row.ii_penalty
        delta = f"{penalty:+d}" if penalty is not None else "-"
        lines.append(f"{row.kernel:13s} " + " ".join(cells) + f" {delta:>6s}")
    lines.append(
        "legend: ΔII = first heterogeneous scenario minus homogeneous "
        "(capability cost)"
    )
    return "\n".join(lines)


def render_headline(sweep: SweepResult) -> str:
    """Render the Section-V headline statistics."""
    wins, total, fraction = headline_winrate(sweep)
    rows_never_worse = never_worse(sweep)
    lines = [
        f"SAT-MapIt strictly better (lower II or only valid mapping): "
        f"{wins}/{total} = {fraction:.2%} (paper: 47.72%)",
        f"SAT-MapIt never worse than the best heuristic: {rows_never_worse}",
    ]
    return "\n".join(lines)
