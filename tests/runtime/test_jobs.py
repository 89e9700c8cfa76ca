"""Unit tests for job specs, content-hash identities, and execution."""

import time

import pytest

from repro.errors import ValidationError
from repro.model import StencilPlan
from repro.runtime import (
    JobResult,
    PlanJob,
    PlannerSpec,
    execute_job,
    list_planners,
    register_planner,
    resolve_planner,
)


class _SleepyPlanner:
    """Test planner: sleeps, then returns an empty (pure-VSB) plan."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def plan(self, instance) -> StencilPlan:
        if self.seconds:
            time.sleep(self.seconds)
        return StencilPlan.empty(instance)


register_planner(
    "test-sleepy",
    lambda options: _SleepyPlanner(float(options.get("seconds", 0.0))),
    description="test-only planner that sleeps",
)


class TestRegistry:
    def test_known_planners_registered(self):
        names = set(list_planners())
        assert {"greedy-1d", "heur-1d", "rows-1d", "eblow-1d",
                "greedy-2d", "sa-2d", "eblow-2d", "ilp-1d", "ilp-2d"} <= names

    def test_bare_name_dispatches_on_kind(self):
        assert resolve_planner("eblow", "1D") == "eblow-1d"
        assert resolve_planner("eblow", "2D") == "eblow-2d"
        assert resolve_planner("GREEDY-1D") == "greedy-1d"

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValidationError, match="unknown planner"):
            resolve_planner("nope", "1D")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValidationError, match="unknown option"):
            PlannerSpec("eblow-1d", {"bogus": 1}).build("1D")


class TestJobIdentity:
    def test_same_spec_same_id(self):
        a = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
        b = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
        assert a.job_id == b.job_id
        assert a.instance_hash == b.instance_hash
        assert a.config_hash == b.config_hash

    def test_option_change_changes_config_hash(self):
        a = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
        b = PlanJob(spec=PlannerSpec("eblow-1d", {"ablated": True}), case="1T-1", scale=1.0)
        assert a.instance_hash == b.instance_hash
        assert a.config_hash != b.config_hash
        assert a.job_id != b.job_id

    def test_instance_change_changes_instance_hash(self):
        a = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
        b = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-2", scale=1.0)
        c = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=0.5)
        assert len({a.instance_hash, b.instance_hash, c.instance_hash}) == 3

    def test_inline_instance_jobs_hash_their_content(self, small_1d_instance):
        a = PlanJob(spec=PlannerSpec("greedy-1d"), instance=small_1d_instance)
        b = PlanJob(spec=PlannerSpec("greedy-1d"), instance=small_1d_instance)
        assert a.job_id == b.job_id

    def test_timeout_does_not_change_identity(self):
        a = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
        b = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0, timeout=5.0)
        assert a.job_id == b.job_id

    def test_needs_exactly_one_input(self, small_1d_instance):
        with pytest.raises(ValidationError):
            PlanJob(spec=PlannerSpec("eblow-1d"))
        with pytest.raises(ValidationError):
            PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", instance=small_1d_instance)


class TestExecuteJob:
    def test_ok_result_carries_plan_and_metrics(self):
        job = PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0, label="e-blow")
        result = execute_job(job)
        assert result.ok and result.status == "ok"
        assert result.label == "e-blow"
        assert result.writing_time > 0
        assert result.num_selected > 0
        assert result.plan is not None and result.plan["row_placements"]
        assert result.instance_summary["kind"] == "1D"
        plan = result.to_plan(job.resolve_instance())
        plan.validate()

    def test_wrong_kind_is_error_not_exception(self):
        job = PlanJob(spec=PlannerSpec("eblow-2d"), case="1T-1", scale=1.0)
        result = execute_job(job)
        assert result.status == "error"
        assert "1D" in result.error or "2D" in result.error

    def test_timeout_interrupts_the_planner(self):
        job = PlanJob(
            spec=PlannerSpec("test-sleepy", {"seconds": 5.0}),
            case="1T-1",
            scale=1.0,
            timeout=0.2,
        )
        start = time.perf_counter()
        result = execute_job(job)
        assert result.status == "timeout"
        assert time.perf_counter() - start < 4.0

    def test_result_round_trips_through_dict(self):
        job = PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0)
        result = execute_job(job)
        again = JobResult.from_dict(result.to_dict())
        assert again.writing_time == result.writing_time
        assert again.plan == result.plan
        assert again.to_algorithm_result().algorithm == result.label


class TestDeterministicMode:
    def test_default_flow_has_no_ilp_wall_clock_cap(self):
        # The fast-convergence ILP stops on a relative MIP gap, never wall
        # clock: the default flow is deterministic (same plan under any load)
        # and cells can no longer pin at exactly the cap.
        default = PlannerSpec("eblow-1d").build("1D")
        assert default.config.convergence.time_limit is None
        assert default.config.convergence.mip_rel_gap is not None
