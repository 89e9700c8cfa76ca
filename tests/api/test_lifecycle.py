"""Round-trip coverage for one planning run's request and result.

A :class:`PlanJob` is the request of every layer and a :class:`JobResult`
its outcome.  The acceptance-critical property: ``to_dict ↔ from_dict`` is
lossless for every registered planner's job and result — including
``extra`` (telemetry counters) — because the job dict is the serve
protocol's request and the result dict is the store entry's body and the
serve result frame.  The captured event stream stays out of the result
dict.
"""

import json

import pytest

from repro.api import plan
from repro.api.registry import get_handle, list_planners
from repro.errors import ValidationError
from repro.events import PlanEvent
from repro.io.serialization import canonical_json
from repro.runtime.jobs import JobResult, PlanJob, PlannerSpec
from repro.serve import ServeClient

FIRST_PARTY = sorted(
    name for name in list_planners() if not name.startswith("test-")
)
# Options that make ILP planners safe on the tiny fixtures.
TIGHT_OPTIONS = {"ilp-1d": {"time_limit": 20.0}, "ilp-2d": {"time_limit": 20.0}}
TINY_CASE = {"1D": "1T-1", "2D": "2T-1"}


class TestPlanRequest:
    def test_needs_exactly_one_target(self, small_1d_instance):
        with pytest.raises(ValidationError, match="exactly one"):
            PlanJob(spec=PlannerSpec("greedy-1d"))
        with pytest.raises(ValidationError, match="exactly one"):
            PlanJob(
                spec=PlannerSpec("greedy-1d"), case="1T-1", instance=small_1d_instance
            )

    def test_case_round_trip_for_every_planner(self):
        for name in FIRST_PARTY:
            kind = get_handle(name).kind
            job = PlanJob(
                spec=PlannerSpec(name, dict(TIGHT_OPTIONS.get(name, {}))),
                case=TINY_CASE[kind],
                scale=1.0,
                timeout=12.5,
                label=f"{name}-label",
            )
            recovered = PlanJob.from_dict(job.to_dict())
            assert recovered == job
            assert canonical_json(job.to_dict()) == canonical_json(recovered.to_dict())

    def test_inline_instance_round_trip(self, small_1d_instance):
        job = PlanJob(
            spec=PlannerSpec("greedy-1d"), instance=small_1d_instance, timeout=3.0
        )
        recovered = PlanJob.from_dict(job.to_dict())
        assert recovered.instance.to_dict() == small_1d_instance.to_dict()
        assert recovered.timeout == 3.0
        assert recovered.job_id == job.job_id

    def test_job_conversion_preserves_content_hash_identity(self):
        job = PlanJob(
            spec=PlannerSpec("eblow-1d", {"ablated": True}), case="1T-2", scale=1.0
        )
        recovered = PlanJob.from_dict(job.to_dict())
        assert recovered.job_id == job.job_id
        assert recovered.instance_hash == job.instance_hash
        assert recovered.config_hash == job.config_hash
        assert recovered == job

    def test_validated_rejects_unknown_options(self):
        job = PlanJob(spec=PlannerSpec("eblow-1d", {"bogus": 1}), case="1T-1", scale=1.0)
        with pytest.raises(ValidationError, match="unknown option"):
            job.validate()

    @pytest.mark.parametrize("target", ["case", "instance"])
    def test_to_dict_is_the_serve_request_payload(self, target, small_1d_instance):
        """The daemon reads what the client sends, byte for byte."""
        if target == "case":
            sent = ServeClient._request_payload(
                "1T-2", "eblow", {"ablated": True}, 0.5, 30.0, "a"
            )
            job = PlanJob(
                spec=PlannerSpec("eblow", {"ablated": True}),
                case="1T-2", scale=0.5, timeout=30.0, label="a",
            )
        else:
            sent = ServeClient._request_payload(
                small_1d_instance, "greedy-1d", None, None, None, None
            )
            job = PlanJob(spec=PlannerSpec("greedy-1d"), instance=small_1d_instance)
        assert json.dumps(job.to_dict()) == json.dumps(sent)
        assert PlanJob.from_dict(sent).job_id == job.job_id


class TestPlanResultRoundTrip:
    @pytest.mark.parametrize("name", FIRST_PARTY)
    def test_executed_result_round_trips(self, name):
        kind = get_handle(name).kind
        result = plan(
            TINY_CASE[kind],
            planner=name,
            options=dict(TIGHT_OPTIONS.get(name, {})),
            scale=1.0,
            timeout=60.0,
            check=False,
        )
        assert result.ok, f"{name}: {result.error}"
        data = result.to_dict()
        recovered = JobResult.from_dict(data)
        assert recovered.to_dict() == data
        # The fields that guard the telemetry manifest format.
        assert recovered.extra == result.extra
        # The captured stream describes one execution, not the result.
        assert result.events and recovered.events == []
        assert canonical_json(data)  # wire format stays canonical-JSON-able

    def test_failed_result_round_trips(self, small_2d_instance):
        # 1D planner on a 2D instance fails inside execute_job.
        result = plan(small_2d_instance, planner="greedy-1d", check=False)
        assert not result.ok and result.status == "error"
        recovered = JobResult.from_dict(result.to_dict())
        assert recovered.to_dict() == result.to_dict()
        assert recovered.error == result.error


class TestLegacyConversions:
    """What a result offers beyond its dict: stats, the plan, the events."""

    def _result(self) -> JobResult:
        return plan("1T-1", planner="eblow-1d", scale=1.0, timeout=30.0)

    def test_extra_survives_the_job_result_path(self):
        result = self._result()
        assert "lp_iterations" in result.extra
        assert JobResult.from_dict(result.to_dict()).extra == result.extra

    def test_stats_exposes_plan_stats(self):
        result = self._result()
        assert result.stats["algorithm"] == "e-blow-1d"
        assert "unsolved_history" in result.stats

    def test_plan_object_requires_a_plan(self):
        failed = JobResult(
            job_id="x", case="c", label="l", planner="p", status="error"
        )
        with pytest.raises(ValidationError, match="carries no plan"):
            failed.plan_object(None)

    def test_event_counts(self):
        result = self._result()
        counts = result.event_counts()
        assert counts["started"] == 1 and counts["finished"] == 1
        assert counts.get("lp_solve", 0) >= 1


def test_plan_event_round_trip():
    event = PlanEvent(type="incumbent", seq=4, elapsed=0.25, payload={"cost": 12.0})
    assert PlanEvent.from_dict(event.to_dict()) == event
