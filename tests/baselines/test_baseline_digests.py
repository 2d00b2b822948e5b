"""Pinned baseline results: RAMP and PathSeeker return the recorded answers.

Each case maps one benchmark kernel on one square mesh the way a sweep
does under :class:`ExperimentConfig` defaults: RAMP once, PathSeeker once
per repeat (seeds 1, 2, 3).  A case's digest hashes, per run, the II, the
attempted IIs with their statuses and the mapping (placements and
registers).  So any change to the scheduler's placement decisions,
tie-breaks or random draws that reaches a result changes a digest, as
``tests/core/emission_digests.json`` does for the encoder's clause stream.

The 2x2 and 3x3 rows run in tier-1; the 4x4 rows are ``slow``.  After a
deliberate change of the baselines' results, regenerate the fixture with::

    PYTHONPATH=src python tests/baselines/test_baseline_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import (
    HOMOGENEOUS,
    PATHSEEKER,
    RAMP,
    ExperimentConfig,
    build_fabric,
    build_mapper,
)
from repro.kernels import all_kernel_names, get_kernel

FIXTURE = Path(__file__).with_name("baseline_digests.json")

MAPPERS = {"ramp": RAMP, "pathseeker": PATHSEEKER}
SIZES = (2, 3, 4)


def _runs(mapper: str, kernel: str, size: int):
    """The outcomes one sweep item computes, one per PathSeeker repeat."""
    config = ExperimentConfig()
    dfg = get_kernel(kernel)
    cgra = build_fabric(HOMOGENEOUS, size, config.registers_per_pe)
    if mapper == "ramp":
        yield build_mapper(RAMP, config).map(dfg, cgra)
        return
    for repeat in range(config.pathseeker_repeats):
        yield build_mapper(PATHSEEKER, config, seed=repeat + 1).map(dfg, cgra)


def case_result(mapper: str, kernel: str, size: int) -> dict:
    """The IIs and the digest of one (mapper, kernel, size) case."""
    rolling = hashlib.sha256()
    iis = []
    for outcome in _runs(mapper, kernel, size):
        assert not outcome.timed_out, (mapper, kernel, size)
        iis.append(outcome.ii)
        rolling.update(json.dumps({
            "ii": outcome.ii,
            "attempts": [(attempt.ii, attempt.status) for attempt in outcome.attempts],
            "mapping": None if outcome.mapping is None else outcome.mapping.to_dict(),
        }, sort_keys=True).encode())
    return {"ii": iis, "sha256": rolling.hexdigest()}


def _case_id(mapper: str, kernel: str, size: int) -> str:
    return f"{mapper}/{kernel}@{size}x{size}"


PINNED = json.loads(FIXTURE.read_text()) if FIXTURE.is_file() else {}


def _check(size: int, mapper: str, kernel: str) -> None:
    case = _case_id(mapper, kernel, size)
    assert case_result(mapper, kernel, size) == PINNED[case], case


@pytest.mark.parametrize("mapper", sorted(MAPPERS))
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("kernel", all_kernel_names())
def test_small_meshes_match_pinned_digests(kernel, size, mapper):
    _check(size, mapper, kernel)


@pytest.mark.slow
@pytest.mark.parametrize("mapper", sorted(MAPPERS))
@pytest.mark.parametrize("kernel", all_kernel_names())
def test_4x4_matches_pinned_digests(kernel, mapper):
    _check(4, mapper, kernel)


def test_fixture_covers_the_grid():
    expected = {_case_id(mapper, kernel, size)
                for mapper in MAPPERS for kernel in all_kernel_names() for size in SIZES}
    assert set(PINNED) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {_case_id(mapper, kernel, size): case_result(mapper, kernel, size)
         for mapper in MAPPERS for kernel in all_kernel_names() for size in SIZES},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FIXTURE}")
