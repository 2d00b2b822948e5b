"""Pinned search trajectories of the benchmark's mapping problems.

For each (kernel, fabric) pair of the ``refute-4x4`` and ``breadth-small``
benchmark workloads, the default mapper (register allocation on) must
reproduce the recorded II, the recorded attempt list -- (ii, slack, status,
conflicts, propagations, decisions, solve calls) per attempt -- and a
SHA-256 of the mapping it returns.  The solver counters pin the whole
trajectory, so a change to how attempts are encoded, guarded or solved
that moves a single propagation shows here.

After a deliberate change of trajectories, regenerate the fixture with::

    PYTHONPATH=src python tests/core/test_trajectory_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel

FIXTURE = Path(__file__).with_name("trajectory_golden.json")

#: refute-4x4's four pairs, then breadth-small's seventeen.
PAIRS = (
    ("gsm", 4), ("nw", 4), ("hotspot", 4), ("bitcount", 4),
    ("gsm", 2), ("patricia", 2), ("bitcount", 2), ("nw", 2),
    ("srand", 2), ("basicmath", 2), ("stringsearch", 2),
    ("sha", 3), ("gsm", 3), ("nw", 3), ("srand", 3),
    ("hotspot", 3), ("basicmath", 3), ("stringsearch", 3),
    ("srand", 4), ("basicmath", 4), ("stringsearch", 4),
)


def _label(kernel: str, size: int) -> str:
    return f"{kernel}@{size}x{size}"


def trajectory(kernel: str, size: int) -> dict:
    """The default mapper's II, attempt list and mapping digest."""
    outcome = SatMapItMapper(MapperConfig()).map(
        get_kernel(kernel), CGRA.square(size)
    )
    assert outcome.success, outcome.summary()
    mapping = json.dumps(outcome.mapping.to_dict(), sort_keys=True)
    return {
        "ii": outcome.ii,
        "attempts": [
            [a.ii, a.schedule_slack, a.status, a.conflicts, a.propagations,
             a.decisions, a.solve_calls]
            for a in outcome.attempts
        ],
        "mapping_sha256": hashlib.sha256(mapping.encode()).hexdigest(),
    }


@pytest.mark.parametrize(
    "kernel,size", PAIRS, ids=[_label(kernel, size) for kernel, size in PAIRS]
)
def test_trajectory_matches_golden(kernel, size):
    expected = json.loads(FIXTURE.read_text())[_label(kernel, size)]
    assert trajectory(kernel, size) == expected


if __name__ == "__main__":
    # One line per pair keeps a changed trajectory a one-line diff.
    lines = [
        f"{json.dumps(_label(kernel, size))}: "
        f"{json.dumps(trajectory(kernel, size), sort_keys=True)}"
        for kernel, size in PAIRS
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
