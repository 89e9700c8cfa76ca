"""Tests for the one-call façade ``repro.plan`` / ``repro.api.submit``."""

import pytest

import repro
from repro.api import PlanningError, PlanRequest, plan, submit
from repro.errors import ValidationError
from repro.runtime import ResultStore
from repro.workloads import build_instance


class TestPlanCall:
    def test_case_name_entry(self):
        result = repro.plan("1T-1", planner="greedy-1d", scale=1.0)
        assert result.ok and result.case == "1T-1" and result.num_selected > 0

    def test_instance_entry(self, small_1d_instance):
        result = repro.plan(small_1d_instance, planner="rows-1d")
        assert result.ok and result.case == small_1d_instance.name

    def test_bare_family_name_dispatches_on_kind(self, small_2d_instance):
        result = repro.plan(small_2d_instance, planner="greedy")
        assert result.ok and result.planner == "greedy"

    def test_options_as_keywords(self, small_2d_instance):
        result = repro.plan(small_2d_instance, planner="eblow-2d", seed=3)
        assert result.ok
        explicit = repro.plan(small_2d_instance, planner="eblow-2d", options={"seed": 3})
        default = repro.plan(small_2d_instance, planner="eblow-2d")
        assert result.job_id == explicit.job_id != default.job_id
        assert result.writing_time == explicit.writing_time

    def test_keyword_and_options_conflict_rejected(self, small_2d_instance):
        with pytest.raises(ValidationError, match="both"):
            repro.plan(
                small_2d_instance, planner="eblow-2d", options={"seed": 1}, seed=2
            )

    def test_unknown_option_surfaces_before_planning(self, small_1d_instance):
        with pytest.raises(ValidationError, match="unknown option"):
            repro.plan(small_1d_instance, planner="eblow-1d", warp=9)

    def test_bad_instance_type_rejected(self):
        with pytest.raises(ValidationError, match="OSPInstance"):
            repro.plan(42, planner="greedy-1d")

    def test_failure_raises_planning_error_with_result(self, small_2d_instance):
        with pytest.raises(PlanningError) as excinfo:
            repro.plan(small_2d_instance, planner="greedy-1d")  # kind mismatch
        failed = excinfo.value.result
        assert failed is not None and failed.status == "error"
        assert "1D" in failed.error

    def test_check_false_returns_failed_result(self, small_2d_instance):
        result = repro.plan(small_2d_instance, planner="greedy-1d", check=False)
        assert not result.ok and result.status == "error"

    def test_on_event_streams_live(self, small_1d_instance):
        live = []
        result = repro.plan(
            small_1d_instance, planner="eblow-1d", on_event=live.append
        )
        assert [e.type for e in live] == [e.type for e in result.events]
        assert live[0].type == "started" and live[-1].type == "finished"

    def test_collect_events_false_keeps_callback_only(self, small_1d_instance):
        live = []
        result = repro.plan(
            small_1d_instance,
            planner="greedy-1d",
            on_event=live.append,
            collect_events=False,
        )
        assert result.events == [] and len(live) >= 2

    def test_three_distinct_event_types_on_2d_case(self):
        result = plan("2D-1", planner="eblow-2d", scale=0.05)
        assert len(result.event_counts()) >= 3


class TestStoreIntegration:
    def test_second_call_is_a_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        first = plan("1T-2", planner="greedy-1d", scale=1.0, store=store)
        second = plan("1T-2", planner="greedy-1d", scale=1.0, store=store)
        assert first.ok and not first.cache_hit
        assert second.cache_hit
        assert second.writing_time == first.writing_time
        assert second.plan == first.plan

    def test_store_key_matches_legacy_job_path(self, tmp_path):
        from repro.runtime import PlanJob, PlannerSpec, run_jobs

        store = ResultStore(tmp_path / "cache")
        plan("1T-3", planner="greedy-1d", scale=1.0, store=store)
        # The legacy batch path must hit the entry the façade wrote.
        [result] = run_jobs(
            [PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-3", scale=1.0)],
            store=store,
        )
        assert result.cache_hit


class TestSubmit:
    def test_submit_never_raises_for_planner_failures(self, small_2d_instance):
        request = PlanRequest(planner="greedy-1d", instance=small_2d_instance)
        result = submit(request)
        assert result.status == "error" and result.error

    def test_submit_validates_options_eagerly(self, small_1d_instance):
        request = PlanRequest(
            planner="greedy-1d", options={"nope": 1}, instance=small_1d_instance
        )
        with pytest.raises(ValidationError, match="unknown option"):
            submit(request)

    def test_timeout_recorded_on_result(self, small_1d_instance):
        request = PlanRequest(
            planner="greedy-1d", instance=small_1d_instance, timeout=45.0
        )
        assert submit(request).timeout == 45.0


class TestBitIdenticalWithLegacyPaths:
    def test_facade_matches_direct_planner_1d(self):
        instance = build_instance("1T-4", 1.0)
        direct = repro.EBlow1DPlanner().plan(instance)
        via_api = repro.plan(instance, planner="eblow-1d")
        strip = lambda d: {k: v for k, v in d.items() if k != "stats"}  # noqa: E731
        assert strip(direct.to_dict()) == strip(via_api.plan)

    def test_facade_matches_direct_planner_2d(self):
        instance = build_instance("2T-3", 1.0)
        direct = repro.EBlow2DPlanner().plan(instance)
        via_api = repro.plan(instance, planner="eblow-2d")
        strip = lambda d: {k: v for k, v in d.items() if k != "stats"}  # noqa: E731
        assert strip(direct.to_dict()) == strip(via_api.plan)
        assert direct.stats["writing_time"] == via_api.writing_time


def test_bare_family_name_resolves_for_named_cases():
    result = plan("1T-1", planner="eblow", scale=1.0)
    assert result.ok and result.planner == "eblow"
    result2d = plan("2T-1", planner="eblow", scale=1.0)
    assert result2d.ok and result2d.stats["algorithm"] == "e-blow-2d"


def test_unknown_case_with_bare_name_raises_helpfully():
    with pytest.raises(ValidationError, match="unknown planner 'eblow'"):
        plan("no-such-case", planner="eblow", scale=1.0)


def test_broken_on_event_callback_keeps_collection_complete(small_1d_instance):
    calls = []

    def broken(event):
        calls.append(event)
        raise RuntimeError("observer bug")

    result = repro.plan(small_1d_instance, planner="greedy-1d", on_event=broken)
    assert result.ok
    assert len(calls) == 1  # callback dropped after first raise
    counts = result.event_counts()
    assert counts["started"] == 1 and counts["finished"] == 1  # collection intact


def test_scale_with_instance_rejected(small_1d_instance):
    with pytest.raises(ValidationError, match="scale="):
        repro.plan(small_1d_instance, planner="greedy-1d", scale=0.5)
