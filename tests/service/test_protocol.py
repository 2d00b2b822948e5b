"""Wire-format validation: strict request parsing, clamped budgets,
tenant hygiene, and outcome rendering."""

from __future__ import annotations

import json

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat.encodings import AMOEncoding
from repro.service.protocol import (
    DEFAULT_TENANT,
    ProtocolError,
    ServiceLimits,
    outcome_payload,
    parse_map_request,
)

LIMITS = ServiceLimits(default_timeout=60.0, max_timeout=600.0, max_wait=30.0)


def parse(payload, **kwargs):
    return parse_map_request(payload, LIMITS, **kwargs)


class TestParsing:
    def test_kernel_request_round_trips(self):
        request = parse({"kernel": "srand", "arch": {"rows": 2, "cols": 2}})
        assert request.dfg.name == "srand"
        assert request.cgra.rows == 2 and request.cgra.cols == 2
        assert request.tenant == DEFAULT_TENANT
        assert request.wait == 0.0

    def test_kernel_dfg_is_a_private_copy(self):
        # The kernel registry caches DFG objects; a re-entrant service must
        # never hand two requests the same mutable graph.
        first = parse({"kernel": "srand"})
        second = parse({"kernel": "srand"})
        assert first.dfg is not second.dfg
        assert first.dfg is not get_kernel("srand")

    def test_dfg_dict_accepted(self):
        spec = get_kernel("srand").to_dict()
        request = parse({"dfg": spec})
        assert request.dfg.name == get_kernel("srand").name

    def test_exactly_one_problem_source_required(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse({"arch": {}})
        with pytest.raises(ProtocolError, match="exactly one"):
            parse({"kernel": "srand", "dfg": {"nodes": []}})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProtocolError, match="unknown kernel"):
            parse({"kernel": "quantum_supremacy"})

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse(["kernel", "srand"])

    def test_arch_preset_resolves(self):
        from repro.cgra.presets import arch_preset_names

        preset = arch_preset_names()[0]
        request = parse({"kernel": "srand", "arch": {"preset": preset}})
        assert request.cgra is not None

    def test_unknown_arch_preset_rejected(self):
        with pytest.raises(ProtocolError, match="unknown arch preset"):
            parse({"kernel": "srand", "arch": {"preset": "tpu-v9"}})


class TestConfigValidation:
    def test_unknown_config_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            parse({"kernel": "srand", "config": {"warp_speed": 9}})

    def test_filesystem_fields_are_not_requestable(self):
        # Cache placement is service-owned: a request choosing where the
        # server writes would be a path-traversal primitive.
        for field in ("cache_dir", "cache_namespace", "verbose"):
            with pytest.raises(ProtocolError, match="unknown config field"):
                parse({"kernel": "srand", "config": {field: "x"}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            parse({"kernel": "srand", "config": {"max_ii": "many"}})
        with pytest.raises(ProtocolError, match="wrong type"):
            parse({"kernel": "srand", "config": {"symmetry_breaking": 1}})

    @pytest.mark.parametrize(
        "field", ["preprocess", "incremental", "tuner_dir", "dimacs_dir"]
    )
    def test_removed_solving_path_fields_rejected(self, field):
        # A field the mapper no longer has must fail the request, not be
        # silently ignored.
        with pytest.raises(ProtocolError, match="unknown config field"):
            parse({"kernel": "srand", "config": {field: False}})

    @pytest.mark.parametrize("field, value", [
        ("search", "ladder"),
        ("search_jobs", 2),
        ("portfolio_variants", ["default"]),
    ])
    def test_removed_search_fields_rejected(self, field, value):
        # The II search has one path; its old knobs are unknown fields.
        with pytest.raises(ProtocolError, match="unknown config field"):
            parse({"kernel": "srand", "config": {field: value}})

    def test_known_seed_mappers_accepted(self):
        request = parse({"kernel": "srand", "config": {
            "seed_mappers": ["ramp"],
        }})
        assert request.config.seed_mappers == ("ramp",)

    def test_amo_encoding_parsed_and_validated(self):
        request = parse(
            {"kernel": "srand", "config": {"amo_encoding": "pairwise"}}
        )
        assert request.config.amo_encoding is AMOEncoding.PAIRWISE
        with pytest.raises(ProtocolError, match="amo_encoding"):
            parse({"kernel": "srand", "config": {"amo_encoding": "hologram"}})

    def test_default_timeout_applied(self):
        request = parse({"kernel": "srand"})
        assert request.config.timeout == LIMITS.default_timeout

    def test_timeout_clamped_to_ceiling(self):
        request = parse({"kernel": "srand", "config": {"timeout": 10_000}})
        assert request.config.timeout == LIMITS.max_timeout

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ProtocolError, match="positive"):
            parse({"kernel": "srand", "config": {"timeout": 0}})

    def test_verbose_is_forced_off(self):
        assert parse({"kernel": "srand"}).config.verbose is False


class TestTenantAndWait:
    def test_tenant_from_body_and_header(self):
        assert parse({"kernel": "srand", "tenant": "team-a"}).tenant == "team-a"
        assert (
            parse({"kernel": "srand"}, header_tenant="team-b").tenant
            == "team-b"
        )
        # Body wins over header.
        assert (
            parse({"kernel": "srand", "tenant": "a"}, header_tenant="b").tenant
            == "a"
        )

    def test_path_traversal_tenants_rejected(self):
        for tenant in ("../evil", "a/b", ".hidden", "x" * 80):
            with pytest.raises(ProtocolError):
                parse({"kernel": "srand", "tenant": tenant})

    def test_empty_tenant_falls_back_to_default(self):
        assert parse({"kernel": "srand", "tenant": ""}).tenant == DEFAULT_TENANT

    def test_wait_validated_and_clamped(self):
        assert parse({"kernel": "srand", "wait": 5}).wait == 5.0
        assert parse({"kernel": "srand", "wait": 10_000}).wait == LIMITS.max_wait
        with pytest.raises(ProtocolError, match="wait"):
            parse({"kernel": "srand", "wait": -1})
        with pytest.raises(ProtocolError, match="wait"):
            parse({"kernel": "srand", "wait": "soon"})


class TestOutcomePayload:
    @pytest.fixture(scope="class")
    def outcome(self):
        return SatMapItMapper(MapperConfig(timeout=60, random_seed=0)).map(
            get_kernel("srand"), CGRA.square(3)
        )

    def test_payload_is_json_serialisable(self, outcome):
        payload = outcome_payload(outcome)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["success"] is True
        assert round_tripped["ii"] == outcome.ii

    def test_payload_carries_mapping_and_telemetry(self, outcome):
        payload = outcome_payload(outcome)
        assert payload["dfg"] == "srand"
        assert payload["mapping"] is not None
        assert payload["attempts"] == len(outcome.attempts)
        assert "backend" not in payload
        assert "search_strategy" not in payload
