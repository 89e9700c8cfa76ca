"""Tests for the planner registry: handles, their options, resolution."""

import pytest

from repro.api.registry import (
    OptionField,
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
            assert handle.kind in ("1D", "2D")
            assert handle.description

    def test_time_limit_capability_matches_schema(self):
        for name in EXPECTED:
            handle = get_handle(name)
            assert handle.supports_time_limit == (
                "time_limit" in [option.name for option in handle.options]
            )

    def test_every_handle_builds_with_defaults(self):
        for name in EXPECTED:
            planner = get_handle(name).build({})
            assert hasattr(planner, "plan")

    def test_kind_filter(self):
        for handle in iter_handles("1D"):
            assert handle.kind in (None, "1D")


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

    @pytest.mark.parametrize(
        "planner, option, value",
        [
            ("eblow-2d", "engine", "copy"),
            ("sa-2d", "engine", "incremental"),
            ("eblow-1d", "deterministic", True),
            ("eblow-2d", "deterministic", True),
            ("ilp-1d", "backend", "scipy"),
            ("ilp-2d", "backend", "bnb"),
            ("greedy-1d", "by_density", False),
            ("greedy-2d", "by_density", False),
            ("heur-1d", "exchange_passes", 2),
            ("heur-1d", "refinement_threshold", 8),
            ("rows-1d", "refinement_threshold", 8),
        ],
    )
    def test_removed_options_are_rejected(self, planner, option, value):
        """Options that selected a reference oracle, did nothing, or no caller set are gone."""
        with pytest.raises(ValidationError, match=rf"unknown option\(s\) \['{option}'\]"):
            get_handle(planner).build({option: value})

    def test_values_coerced_to_declared_types(self):
        validated = get_handle("eblow-2d").validate_options({"seed": "5"})
        assert validated == {"seed": 5} and isinstance(validated["seed"], int)

    def test_defaults_not_injected(self):
        assert get_handle("eblow-2d").validate_options({}) == {}

    def test_bad_type_rejected(self):
        with pytest.raises(ValidationError, match="expects float"):
            get_handle("ilp-1d").validate_options({"time_limit": "soon"})

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            PlannerHandle("toy", "", "1D", _stub, options=(OptionField("a"), OptionField("a")))

    def test_unknown_field_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown type"):
            OptionField(name="x", type="complex")


class TestSerialization:
    def test_describe_is_canonical_jsonable(self):
        for description in describe_planners():
            assert canonical_json(description)  # raises on non-JSON-able content

    def test_schema_version_serialized(self):
        for description in describe_planners():
            assert description["options"]["version"] == 1


class TestRegistration:
    def test_replace_takes_latest(self):
        register(PlannerHandle("test-replace", "first", "1D", _stub))
        register(PlannerHandle("test-replace", "second", "1D", _stub))
        assert get_handle("test-replace").description == "second"

    def test_builder_gets_the_validated_options(self):
        calls = []
        register(
            PlannerHandle(
                "test-builder",
                "records its options",
                None,
                lambda options: calls.append(options) or _Stub(),
                options=(OptionField("n", "int"),),
            )
        )
        assert isinstance(get_handle("test-builder").build({"n": "3"}), _Stub)
        assert calls == [{"n": 3}]
        with pytest.raises(ValidationError, match="unknown option"):
            get_handle("test-builder").build({"anything": "goes"})


class _Stub:
    def plan(self, instance):  # pragma: no cover - never called
        raise NotImplementedError


def _stub(options):
    return _Stub()


class TestBoolCoercion:
    """bool options must never be inverted by Python truthiness on strings."""

    def test_string_spellings(self):
        validate = get_handle("eblow-1d").validate_options
        assert validate({"ablated": "false"}) == {"ablated": False}
        assert validate({"ablated": "true"}) == {"ablated": True}
        assert validate({"ablated": "0"}) == {"ablated": False}
        assert validate({"ablated": 1}) == {"ablated": True}

    def test_ambiguous_strings_rejected(self):
        validate = get_handle("eblow-1d").validate_options
        with pytest.raises(ValidationError, match="expects bool"):
            validate({"ablated": "maybe"})
        with pytest.raises(ValidationError, match="expects bool"):
            validate({"ablated": 2})
