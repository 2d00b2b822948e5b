"""Worker-process cancellation: SIGTERM escalation and no-leak guarantees.

The portfolio's old cancellation path was terminate-and-hope: a worker
that ignored SIGTERM (stuck in native solver code, or with a handler
installed) silently outlived the strategy.  These tests pin down the
kill-escalation discipline (:func:`repro.procs.reap`)
and the strategy-exit invariant that no spawned worker survives — the
properties a long-lived service process depends on.
"""

from __future__ import annotations

import multiprocessing
import signal
import time

import repro.procs as procs_module
import repro.search.portfolio as portfolio_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.procs import reap
from repro.search.portfolio import _portfolio_worker


def _sleep_forever() -> None:
    time.sleep(600)


def _ignore_sigterm_and_sleep() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


class TestReapProcess:
    def test_cooperative_worker_dies_on_sigterm(self):
        process = multiprocessing.Process(target=_sleep_forever, daemon=True)
        process.start()
        reap([process])
        assert not process.is_alive()

    def test_sigterm_ignorer_is_kill_escalated(self, monkeypatch):
        monkeypatch.setattr(procs_module, "_TERM_GRACE", 0.3)
        process = multiprocessing.Process(
            target=_ignore_sigterm_and_sleep, daemon=True
        )
        process.start()
        time.sleep(0.3)  # let the child install SIG_IGN
        start = time.monotonic()
        reap([process])
        elapsed = time.monotonic() - start
        assert not process.is_alive()
        # Escalated after the (shrunk) grace, not the full sleep.
        assert elapsed < 5.0

    def test_already_dead_process_is_a_noop(self):
        process = multiprocessing.Process(target=_noop, daemon=True)
        process.start()
        process.join()
        reap([process])  # must not raise or hang
        assert not process.is_alive()

    def test_explicit_grace_overrides_module_default(self, monkeypatch):
        monkeypatch.setattr(procs_module, "_TERM_GRACE", 600.0)
        process = multiprocessing.Process(
            target=_ignore_sigterm_and_sleep, daemon=True
        )
        process.start()
        time.sleep(0.3)
        start = time.monotonic()
        reap([process], grace=0.2)
        assert not process.is_alive()
        assert time.monotonic() - start < 5.0

    def test_sigterm_ignorers_share_one_grace(self):
        processes = [
            multiprocessing.Process(target=_ignore_sigterm_and_sleep,
                                    daemon=True)
            for _ in range(3)
        ]
        for process in processes:
            process.start()
        time.sleep(0.3)
        start = time.monotonic()
        reap(processes, grace=0.5)
        assert not any(process.is_alive() for process in processes)
        # One shared grace, not one per process.
        assert time.monotonic() - start < 1.5


def _noop() -> None:
    pass


def _stubborn_portfolio_worker(conn, dfg, cgra, config, ii):
    """Portfolio lane stand-in: the frontier II solves for real, every
    higher II ignores SIGTERM and naps — the worst-case worker the
    cancellation path must still reap."""
    if ii <= 3:  # srand on 3x3 is feasible at its minimum II of 3
        time.sleep(0.5)  # let the stubborn siblings install SIG_IGN first
        _portfolio_worker(conn, dfg, cgra, config, ii)
        return
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


class TestPortfolioCancellation:
    def test_frontier_win_reaps_sigterm_ignoring_workers(self, monkeypatch):
        """A win must cancel the moot lanes even when they shrug off
        SIGTERM; the strategy asserts no worker outlives it."""
        monkeypatch.setattr(procs_module, "_TERM_GRACE", 0.5)
        monkeypatch.setattr(
            portfolio_module, "_portfolio_worker", _stubborn_portfolio_worker
        )
        before = {p.pid for p in multiprocessing.active_children()}
        outcome = SatMapItMapper(
            MapperConfig(
                timeout=120,
                random_seed=0,
                search="portfolio",
                search_jobs=4,
                portfolio_variants=("default",),
                seed_heuristic=False,
            )
        ).map(get_kernel("srand"), CGRA.square(3))
        assert outcome.success
        assert outcome.ii == 3
        # Lanes for II >= 4 were launched (search_jobs=4, one variant per
        # II) and must have been cancelled, not leaked.
        assert outcome.portfolio_cancelled >= 1
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        assert leaked == [], f"portfolio leaked workers: {leaked}"
