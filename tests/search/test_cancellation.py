"""Worker-process cancellation: SIGTERM escalation.

Terminate-and-hope is not enough: a worker that ignores SIGTERM (stuck in
native solver code, or with a handler installed) would silently outlive
its parent.  These tests pin down the kill-escalation discipline
(:func:`repro.procs.reap`) that the service and the farm depend on.
"""

from __future__ import annotations

import multiprocessing
import signal
import time

import repro.procs as procs_module
from repro.procs import reap


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
