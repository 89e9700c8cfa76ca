"""Tests for the planner registry: handles, capabilities, option schemas."""

import pytest

from repro.api import registry as reg
from repro.api.registry import (
    OptionField,
    OptionSchema,
    PlannerCapabilities,
    PlannerHandle,
    describe_planners,
    get_handle,
    iter_handles,
    list_planners,
    register,
    resolve_planner,
)
from repro.errors import ValidationError
from repro.io.serialization import canonical_json

EXPECTED = {
    "greedy-1d", "heur-1d", "rows-1d", "eblow-1d",
    "greedy-2d", "sa-2d", "eblow-2d", "ilp-1d", "ilp-2d",
}


class TestCatalogue:
    def test_all_first_party_planners_registered(self):
        assert EXPECTED <= set(list_planners())

    def test_every_handle_declares_kind_and_description(self):
        for name in EXPECTED:
            handle = get_handle(name)
            assert handle.capabilities.kind in ("1D", "2D")
            assert handle.description

    def test_time_limit_capability_matches_schema(self):
        for name in EXPECTED:
            handle = get_handle(name)
            assert handle.capabilities.supports_time_limit == (
                "time_limit" in handle.schema.names
            )

    def test_every_handle_builds_with_defaults(self):
        for name in EXPECTED:
            planner = get_handle(name).build({})
            assert hasattr(planner, "plan")

    def test_kind_filter(self):
        for handle in iter_handles("1D"):
            assert handle.capabilities.kind in (None, "1D")


class TestResolution:
    def test_exact_and_case_insensitive(self):
        assert resolve_planner("eblow-1d") == "eblow-1d"
        assert resolve_planner("EBLOW-2D") == "eblow-2d"

    def test_kind_suffix_shorthand(self):
        assert resolve_planner("eblow", "1D") == "eblow-1d"
        assert resolve_planner("eblow", "2D") == "eblow-2d"
        assert resolve_planner("greedy", "1d") == "greedy-1d"
        assert resolve_planner("ilp", "2D") == "ilp-2d"

    def test_bare_name_without_kind_fails(self):
        with pytest.raises(ValidationError, match="unknown planner"):
            resolve_planner("eblow")

    def test_unknown_planner_lists_registry_and_suggests(self):
        with pytest.raises(ValidationError) as excinfo:
            resolve_planner("eblov", "1D")
        message = str(excinfo.value)
        assert "registered planners" in message
        assert "eblow-1d" in message
        assert "did you mean" in message and "eblow" in message

    def test_suggestion_covers_bare_family_names(self):
        with pytest.raises(ValidationError, match="did you mean"):
            resolve_planner("greedyy", "2D")

    def test_hopeless_typo_gets_no_suggestion(self):
        with pytest.raises(ValidationError) as excinfo:
            resolve_planner("zzzzqqq")
        assert "did you mean" not in str(excinfo.value)


class TestOptionSchemas:
    def test_unknown_option_rejected_with_allowed_list(self):
        with pytest.raises(ValidationError, match=r"unknown option\(s\) \['bogus'\]"):
            get_handle("eblow-1d").build({"bogus": 1})

    def test_choices_enforced(self):
        schema = OptionSchema(fields=(OptionField("mode", choices=("fast", "exact")),))
        assert schema.validate({"mode": "exact"}, "toy") == {"mode": "exact"}
        with pytest.raises(ValidationError, match="must be one of"):
            schema.validate({"mode": "warp-drive"}, "toy")

    @pytest.mark.parametrize(
        "planner, option, value",
        [
            ("eblow-2d", "engine", "copy"),
            ("sa-2d", "engine", "incremental"),
            ("eblow-1d", "deterministic", True),
            ("eblow-2d", "deterministic", True),
            ("ilp-1d", "backend", "scipy"),
            ("ilp-2d", "backend", "bnb"),
        ],
    )
    def test_removed_options_are_rejected(self, planner, option, value):
        """Options that only selected a reference oracle, or did nothing, are gone."""
        with pytest.raises(ValidationError, match=rf"unknown option\(s\) \['{option}'\]"):
            get_handle(planner).build({option: value})

    def test_values_coerced_to_declared_types(self):
        schema = get_handle("eblow-2d").schema
        validated = schema.validate({"seed": "5"}, "eblow-2d")
        assert validated == {"seed": 5} and isinstance(validated["seed"], int)

    def test_defaults_not_injected(self):
        schema = get_handle("eblow-2d").schema
        assert schema.validate({}, "eblow-2d") == {}

    def test_bad_type_rejected(self):
        schema = get_handle("ilp-1d").schema
        with pytest.raises(ValidationError, match="expects float"):
            schema.validate({"time_limit": "soon"}, "ilp-1d")

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            OptionSchema(fields=(OptionField("a"), OptionField("a")))

    def test_unknown_field_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown type"):
            OptionField(name="x", type="complex")


class TestSerialization:
    def test_describe_is_canonical_jsonable(self):
        for description in describe_planners():
            assert canonical_json(description)  # raises on non-JSON-able content

    def test_schema_round_trip_for_every_planner(self):
        for handle in iter_handles():
            schema = handle.schema
            assert OptionSchema.from_dict(schema.to_dict()) == schema

    def test_capabilities_round_trip_for_every_planner(self):
        for handle in iter_handles():
            caps = handle.capabilities
            assert PlannerCapabilities.from_dict(caps.to_dict()) == caps

    def test_schema_version_serialized(self):
        data = get_handle("eblow-2d").schema.to_dict()
        assert data["version"] == 1


class TestLegacyRegistration:
    def test_open_schema_passthrough(self):
        calls = []
        reg.register_planner(
            "test-legacy", lambda o: calls.append(o) or _Stub(), description="legacy"
        )
        handle = get_handle("test-legacy")
        assert handle.schema.open_schema
        handle.build({"anything": "goes", "n": 3})
        assert calls == [{"anything": "goes", "n": 3}]

    def test_replace_takes_latest(self):
        register(
            PlannerHandle(
                name="test-replace",
                description="first",
                capabilities=PlannerCapabilities(kind="1D"),
            )
        )
        register(
            PlannerHandle(
                name="test-replace",
                description="second",
                capabilities=PlannerCapabilities(kind="1D"),
            )
        )
        assert get_handle("test-replace").description == "second"

    def test_builderless_handle_cannot_build(self):
        register(
            PlannerHandle(
                name="test-nobuilder",
                description="",
                capabilities=PlannerCapabilities(kind="1D"),
            )
        )
        with pytest.raises(ValidationError, match="no builder"):
            get_handle("test-nobuilder").build({})


class _Stub:
    def plan(self, instance):  # pragma: no cover - never called
        raise NotImplementedError


class TestBoolCoercion:
    """bool options must never be inverted by Python truthiness on strings."""

    def test_string_spellings(self):
        schema = reg.get_handle("eblow-1d").schema
        assert schema.validate({"ablated": "false"}, "eblow-1d") == {"ablated": False}
        assert schema.validate({"ablated": "true"}, "eblow-1d") == {"ablated": True}
        assert schema.validate({"ablated": "0"}, "eblow-1d") == {"ablated": False}
        assert schema.validate({"ablated": 1}, "eblow-1d") == {"ablated": True}

    def test_ambiguous_strings_rejected(self):
        schema = reg.get_handle("eblow-1d").schema
        with pytest.raises(ValidationError, match="expects bool"):
            schema.validate({"ablated": "maybe"}, "eblow-1d")
        with pytest.raises(ValidationError, match="expects bool"):
            schema.validate({"ablated": 2}, "eblow-1d")
