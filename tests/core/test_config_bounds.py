"""Out-of-range ``MapperConfig`` values are rejected when the config is
built — directly, through ``repro map``/``repro sweep``, and in a service
request — never halfway through ``map()`` or after wasted attempts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.core.mapper import MapperConfig
from repro.service.protocol import ProtocolError, parse_map_request

OUT_OF_RANGE = [
    ("max_ii", 0),
    ("schedule_slack", -3),
    ("max_extra_slack", -1),
    ("regalloc_retries", -1),
    ("timeout", -1.0),
    ("attempt_time_limit", -2.0),
    ("attempt_time_limit", 0.0),
    ("seed_time_budget", -1.0),
    ("seed_mappers", ("bogus",)),
    ("seed_mappers", ("ramp", "bogus")),
]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_config_rejects_out_of_range_value(name, value):
    with pytest.raises(ValueError, match=f"MapperConfig.{name}"):
        MapperConfig(**{name: value})
    with pytest.raises(ValueError, match=f"MapperConfig.{name}"):
        dataclasses.replace(MapperConfig(), **{name: value})


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_service_request_rejects_out_of_range_value(name, value):
    with pytest.raises(ProtocolError, match=name):
        parse_map_request({"kernel": "srand", "config": {name: value}})


def test_boundary_values_are_accepted():
    MapperConfig(max_ii=1, schedule_slack=0, max_extra_slack=0,
                 regalloc_retries=0, attempt_time_limit=0.5,
                 seed_time_budget=0.0, seed_mappers=())
    # The anytime probe: a zero budget reports a timeout after 0 attempts.
    MapperConfig(timeout=0.0)


@pytest.mark.parametrize("argv", [
    ["map", "--kernel", "srand", "--rows", "2", "--cols", "2",
     "--timeout", "-1"],
    ["sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "-1"],
])
def test_cli_negative_timeout_is_one_line_error(argv, capsys):
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "timeout" in captured.err
    assert "attempts" not in captured.out
