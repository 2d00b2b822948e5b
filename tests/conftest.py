"""Shared fixtures for the suites that start worker processes."""

from __future__ import annotations

import multiprocessing
import time

import pytest

#: Test directories whose code starts worker processes.
_PROCESS_SUITES = frozenset({"farm", "service", "search"})

#: Seconds a test's children get to finish exiting before they count as
#: leaked.
_SETTLE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_children(request):
    """Fail a process-suite test that leaves new children alive."""
    if request.path.parent.name not in _PROCESS_SUITES:
        yield
        return
    before = {child.pid for child in multiprocessing.active_children()}
    yield
    deadline = time.monotonic() + _SETTLE_S
    while True:
        leaked = [child for child in multiprocessing.active_children()
                  if child.pid not in before]
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if leaked:
        pytest.fail(f"test leaked live child process(es): {leaked}")
