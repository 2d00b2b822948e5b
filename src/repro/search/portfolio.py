"""Process-based parallel portfolio over IIs and solver configurations.

The ladder spends its wall-clock on two things: the UNSAT proofs of the
infeasible IIs below the optimum, and the final SAT attempt itself.  Both
are raced here:

* **across IIs** — one worker process per candidate II, so the proof work
  of II = k and the mapping work of II = k+1 overlap instead of queueing;
* **across configurations** — each II can additionally be raced by several
  *variants* of the solver configuration (probe-free AUTO, forced pairwise
  AMO, sequential AMO).  Variant runtimes on a hard instance differ by
  integer factors and no single variant dominates, which is the classic
  SAT-portfolio observation; the first variant to answer settles the II
  for everyone.  The line-up is fixed by ``MapperConfig.portfolio_variants``.

Work items ``(ii, variant)`` are dispatched in II-major order onto at most
``MapperConfig.search_jobs`` worker processes.  Results are aggregated per
II, and the **frontier** (the lowest unresolved II) decides the race: a win
at the frontier II cancels every other worker and returns; a frontier
failure advances the frontier and may promote an already-finished win at a
higher II.  A win above the frontier never returns early — minimality
requires every II below it to be resolved first, exactly like the ladder.

Soundness across variants: every variant encodes the same mapping problem
(AMO encodings preserve satisfiability), so a SAT answer from *any*
variant is a valid mapping and a decisive all-UNSAT answer from any
variant is a proof of infeasibility for the II itself.
Inconclusive failures (conflict- or time-bounded attempts) only fail the II
once every variant has failed it.  A **register-allocation** failure is
weaker still: it rejects the specific models one variant's trajectory kept
finding, not the II — so the first regalloc-blocked verdict at an II
escalates it with one extra lane under the unmodified (``default``)
configuration before the frontier may pass it, keeping the portfolio's II
aligned with the sequential ladder's even when colouring, not
satisfiability, is the binding constraint.

Each worker runs a single-II mapping through the ordinary
:class:`~repro.core.mapper.SatMapItMapper` (ladder strategy, caching off),
so per-attempt stats come back intact and are merged into the parent run's
outcome; attempts of cancelled workers die with their process and are
counted in ``MappingOutcome.portfolio_cancelled``.  Lanes are forked
through :mod:`repro.procs`: each answers once over its own pipe, and a
lane that dies without answering reads as a crash and fails its lane.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro import procs
from repro.sat.encodings import AMOEncoding
from repro.search.base import SearchContext, SearchResult, SearchStrategy

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.core.mapper import MapperConfig, MappingOutcome

#: Named solver-configuration variants a portfolio can race at each II.
#: Every variant preserves satisfiability of the mapping problem, so their
#: answers are interchangeable; only their runtimes differ.
PORTFOLIO_VARIANTS: dict[str, dict] = {
    # The mapper's default trajectory (AUTO encoding with the sequential
    # probe/escalation phase).
    "default": {},
    # AUTO without the probe: skips the escalation detour, which wins on
    # attempts the probe budget cannot settle.
    "no-probe": {"amo_probe_conflicts": None},
    # Forced quadratic pairwise AMO: maximal propagation per conflict.
    "pairwise": {"amo_encoding": AMOEncoding.PAIRWISE,
                 "amo_probe_conflicts": None},
    # Forced sequential-counter AMO: smallest encoding, fastest to emit.
    "sequential": {"amo_encoding": AMOEncoding.SEQUENTIAL,
                   "amo_probe_conflicts": None},
}

#: Default racing line-up (see ``MapperConfig.portfolio_variants``).
#: ``no-probe`` leads: a worker that owns exactly one II has no use for the
#: sequential probe/escalation two-phase — the probe exists to spare the
#: *ladder* quadratic pairwise emission on easy attempts, but the attempts
#: a portfolio is bought for are the hard ones, which always escalate, so
#: for a dedicated worker the probe is pure overhead.
DEFAULT_VARIANTS: tuple[str, ...] = ("no-probe", "default", "pairwise")

def variant_overrides(names: tuple[str, ...]) -> list[dict]:
    """Resolve variant names to config overrides, validating early."""
    overrides = []
    for name in names:
        try:
            overrides.append(PORTFOLIO_VARIANTS[name])
        except KeyError:
            raise ValueError(
                f"unknown portfolio variant {name!r}; "
                f"available: {sorted(PORTFOLIO_VARIANTS)}"
            ) from None
    return overrides


def _portfolio_worker(conn, dfg, cgra, config, ii) -> None:
    """Run one (II, variant) mapping attempt and ship the outcome back.

    ``config`` arrives fully specialised (variant overrides applied, ladder
    strategy, caching off, ``max_ii`` pinned to ``ii``); the worker is just
    an ordinary single-II mapper run in its own process.
    """
    from repro.core.mapper import SatMapItMapper

    try:
        outcome = SatMapItMapper(config).map(dfg, cgra, start_ii=ii)
        conn.send(outcome)
    except BaseException as exc:  # pragma: no cover - crash containment
        conn.send(repr(exc))


def _stop(workers) -> None:
    """Reap lanes (one shared SIGTERM grace) and close their pipes."""
    procs.reap(worker.process for worker in workers)
    for worker in workers:
        worker.conn.close()


#: Sentinel lane index for a regalloc-triggered escalation to the
#: ``default`` variant (see ``PortfolioStrategy`` docstring).
_DEFAULT_LANE = -1


@dataclass
class _IIState:
    """Aggregated verdict for one candidate II across its racing lanes."""

    total_lanes: int
    win: "MappingOutcome | None" = None
    winning_variant: str | None = None
    unsat_proof: bool = False
    failed_lanes: int = 0
    #: Whether a regalloc-blocked verdict already spawned the extra
    #: ``default``-variant lane (at most one per II).
    escalated: bool = False

    @property
    def resolved(self) -> bool:
        return (
            self.win is not None
            or self.unsat_proof
            or self.failed_lanes >= self.total_lanes
        )

    @property
    def infeasible(self) -> bool:
        return self.win is None and self.resolved


class PortfolioStrategy(SearchStrategy):
    """Race IIs and configuration variants; first frontier win takes all."""

    name = "portfolio"

    def search(self, ctx: SearchContext) -> SearchResult | None:
        config = ctx.config
        if ctx.first_ii > ctx.max_ii:
            return None
        seed = ctx.seed
        if seed is not None and seed.ii <= ctx.first_ii:
            # The seed already sits on the lower bound — provably optimal,
            # nothing to race.
            return seed
        # A seed caps the raced range: lanes only prove optimality downward
        # from it; the frontier passing ``top_ii`` means every lower II is
        # resolved infeasible and the seed mapping is the answer.
        top_ii = ctx.max_ii if seed is None else min(ctx.max_ii, seed.ii - 1)
        variant_names = tuple(config.portfolio_variants) or ("default",)
        # Racing variants only pays when they actually run in parallel: on a
        # box with fewer cores than variants, the extra lanes just timeshare
        # the winner's core.  Trim the line-up to the machine's parallelism
        # (the II race across workers is kept — cancelling a moot II's
        # worker costs nothing).  Explicit line-ups stay explicit: the trim
        # only drops variants, never reorders them.
        cpu_budget = os.cpu_count() or 1
        variant_names = variant_names[: max(1, cpu_budget)]
        overrides = variant_overrides(variant_names)
        jobs = max(1, config.search_jobs)

        # Fork, named: lanes start in milliseconds from the mapper stack
        # and native core loaded here, whatever the interpreter's default is.
        mp_ctx = procs.fork_context()
        # Work items in II-major order: the frontier II gets all its
        # variants in flight before the next II is touched.  Escalation
        # lanes (see ``settle``) jump this queue through ``urgent``.
        items = [
            (ii, v)
            for ii in range(ctx.first_ii, top_ii + 1)
            for v in range(len(variant_names))
        ]
        next_item = 0
        urgent: list[tuple[int, int]] = []
        active: dict[procs.Worker, tuple[int, int]] = {}  # -> (ii, lane)
        spawned: list = []  # every worker process ever launched
        states: dict[int, _IIState] = {}
        frontier = ctx.first_ii
        best_win_ii: int | None = None  # lowest II with a win so far

        outcome = ctx.outcome

        def lane_name(lane: int) -> str:
            return "default" if lane == _DEFAULT_LANE else variant_names[lane]

        def lane_overrides(lane: int) -> dict:
            return {} if lane == _DEFAULT_LANE else overrides[lane]

        def launch(ii: int, lane: int) -> None:
            worker_config = self._worker_config(
                config, lane_overrides(lane), ii, ctx.remaining_time()
            )
            worker = procs.start(mp_ctx, _portfolio_worker, ctx.dfg,
                                 ctx.cgra, worker_config, ii)
            active[worker] = (ii, lane)
            spawned.append(worker.process)
            outcome.portfolio_launched += 1
            states.setdefault(ii, _IIState(len(variant_names)))

        def dispatch() -> None:
            nonlocal next_item
            while len(active) < jobs and (urgent or next_item < len(items)):
                if urgent:
                    ii, lane = urgent.pop(0)
                    state = states.get(ii)
                    if state is not None and (
                        state.win is not None or state.unsat_proof
                    ):
                        # A sibling lane settled the II while the
                        # escalation waited for a worker slot.
                        state.total_lanes -= 1
                        continue
                    launch(ii, lane)
                    continue
                ii, lane = items[next_item]
                state = states.get(ii)
                if (
                    (best_win_ii is not None and ii >= best_win_ii)
                    or (state is not None and state.resolved)
                ):
                    # The answer is <= best_win_ii / the II is already
                    # settled; work there is moot.
                    next_item += 1
                    continue
                next_item += 1
                launch(ii, lane)

        def cancel_all() -> None:
            outcome.portfolio_cancelled += len(active)
            _stop(active)
            active.clear()

        def settle(ii: int, lane: int, payload) -> None:
            """Fold one lane's answer (or crash) into its II's state."""
            nonlocal best_win_ii
            state = states[ii]
            if isinstance(payload, (str, procs.Crash)):
                # The lane raised or crashed: count it as failed.
                state.failed_lanes += 1
                return
            worker_outcome = payload
            outcome.attempts.extend(worker_outcome.attempts)
            if worker_outcome.success and worker_outcome.mapping is not None:
                if state.win is None:
                    state.win = worker_outcome
                    state.winning_variant = lane_name(lane)
                if best_win_ii is None or ii < best_win_ii:
                    best_win_ii = ii
                return
            if worker_outcome.timed_out:
                # The lane ran out of the run's own budget (it was given
                # what remained at launch), so the run has timed out.  Its
                # II stays unresolved: a partial all-UNSAT record is not a
                # proof, as untried slack levels might still map this II.
                outcome.timed_out = True
                return
            if (
                worker_outcome.attempts
                and all(a.status == "UNSAT" for a in worker_outcome.attempts)
            ):
                # A decisive proof of infeasibility — variant-independent.
                state.unsat_proof = True
                return
            state.failed_lanes += 1
            if any(
                a.status == "REGALLOC_FAIL" for a in worker_outcome.attempts
            ) and self._should_escalate(state, lane, variant_names, config,
                                        lane_overrides(lane)):
                # SAT models exist at this II but this variant's models kept
                # failing register allocation — a *model*-dependent verdict,
                # unlike UNSAT.  Give the II one extra lane under the
                # unmodified configuration (the ladder's own trajectory)
                # before letting the frontier pass it.
                state.escalated = True
                state.total_lanes += 1
                urgent.append((ii, _DEFAULT_LANE))

        try:
            dispatch()
            while active:
                ready = procs.wait(active, ctx.remaining_time())
                if not ready and ctx.out_of_time():
                    outcome.timed_out = True
                for worker in ready:
                    # A lane answers once, then exits; a lane that died
                    # without answering reads as a crash record.
                    payload = procs.receive(worker)
                    ii, lane = active.pop(worker)
                    worker.conn.close()
                    worker.process.join()
                    settle(ii, lane, payload)
                if outcome.timed_out:
                    cancel_all()
                    self._finalise_attempts(outcome)
                    # The seed is the anytime answer of last resort:
                    # feasible and validated, merely not proven minimal.
                    return self._anytime_result(states, frontier) or seed

                # Advance the frontier over every freshly resolved II.
                while True:
                    state = states.get(frontier)
                    if state is None or not state.resolved:
                        break
                    if state.win is not None:
                        outcome.portfolio_winner = state.winning_variant
                        cancel_all()
                        self._finalise_attempts(outcome)
                        return SearchResult(
                            ii=frontier,
                            mapping=state.win.mapping,
                            allocation=state.win.register_allocation,
                        )
                    frontier += 1
                if frontier > top_ii:
                    # Every raced II is resolved infeasible: with a seed the
                    # seed mapping is the (now provably minimal among the
                    # unruled candidates) answer; without one the run failed.
                    cancel_all()
                    self._finalise_attempts(outcome)
                    return seed
                # Cancel workers made moot by a win at a lower II or by a
                # sibling variant settling their II.
                self._cancel_moot(active, states, best_win_ii, outcome)
                dispatch()
        finally:
            cancel_all()
            # Lifecycle invariant: whatever path led here (win, exhaustion,
            # timeout, crash), no worker may outlive the strategy — a leaked
            # child would accumulate forever in a long-lived service process.
            assert not any(
                process.is_alive() for process in spawned
            ), "portfolio leaked live worker process(es) at strategy exit"
        # Workers drained without a frontier verdict (e.g. silent worker
        # deaths resolved the remaining IIs): fall back to the same sound
        # walk the timeout path uses.
        self._finalise_attempts(outcome)
        return self._anytime_result(states, frontier) or seed

    # ------------------------------------------------------------------
    @staticmethod
    def _worker_config(
        config: "MapperConfig", overrides: dict, ii: int,
        remaining: float | None,
    ) -> "MapperConfig":
        """Specialise the run's config for one (II, variant) worker.

        Seeding is a parent-side concern: the parent already ran the
        heuristic pre-pass, so workers get it switched off (a worker
        re-seeding its single II would be pure overhead).
        """
        fields: dict = dict(overrides)
        fields["search"] = "ladder"
        fields["cache_dir"] = None
        fields["max_ii"] = ii
        fields["verbose"] = False
        fields["seed_heuristic"] = False
        if remaining is not None:
            fields["timeout"] = remaining
        return replace(config, **fields)

    @staticmethod
    def _cancel_moot(
        active: dict, states: dict, best_win_ii: int | None, outcome,
    ) -> None:
        """Terminate workers whose answer can no longer matter.

        A worker is moot when its II is above a lower II that already has a
        win (the answer is at most that win), or when a sibling variant has
        settled its II either way.
        """
        def moot(ii: int) -> bool:
            if best_win_ii is not None and ii > best_win_ii:
                return True
            state = states.get(ii)
            return state is not None and state.resolved

        doomed = {w: lane for w, lane in active.items() if moot(lane[0])}
        for worker in doomed:
            del active[worker]
        outcome.portfolio_cancelled += len(doomed)
        _stop(doomed)

    @staticmethod
    def _should_escalate(
        state: _IIState, lane: int, variant_names: tuple[str, ...],
        config: "MapperConfig", lane_ovr: dict,
    ) -> bool:
        """Whether a regalloc-blocked lane earns the II a ``default`` lane.

        Pointless when the II already escalated, when ``default`` is part of
        the racing line-up anyway, or when the failing lane's overrides are
        a no-op against the base configuration (re-running the identical
        trajectory cannot change the verdict).
        """
        if state.escalated or lane == _DEFAULT_LANE:
            return False
        if "default" in variant_names:
            return False
        return replace(config, **lane_ovr) != config

    @staticmethod
    def _finalise_attempts(outcome: "MappingOutcome") -> None:
        """Order merged attempts by II (stable within an II's variants)."""
        outcome.attempts.sort(key=lambda attempt: attempt.ii)

    def _anytime_result(
        self, states: dict[int, _IIState], frontier: int
    ) -> SearchResult | None:
        """On timeout, surface the lowest win whose lower IIs all failed.

        Walking up from the frontier: a resolved-infeasible II is skipped,
        a win is returned (every II below it is proven out), and an
        unresolved or never-raced II stops the walk — a win above it would
        be unsound to claim as minimal, matching what the ladder would have
        reached.
        """
        for ii in range(frontier, max(states, default=frontier) + 1):
            state = states.get(ii)
            if state is None:
                return None
            if state.infeasible:
                continue
            if state.win is not None:
                return SearchResult(
                    ii=ii,
                    mapping=state.win.mapping,
                    allocation=state.win.register_allocation,
                )
            return None
        return None
