"""Chaos suite: injected faults must never change what a batch computes.

Every test arms a :class:`~repro.runtime.faults.FaultPlan` (workers inherit
it over fork), runs a supervised batch, and asserts two things: the batch
*completes*, and the surviving plans are bit-identical to a fault-free serial
run — fault tolerance may cost time, never correctness.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    LocalScheduler,
    PlannerSpec,
    ResultStore,
    SupervisorConfig,
    grid_jobs,
    run_jobs,
)
from repro.runtime import faults
from repro.runtime.jobs import execute_job

_PLANNERS = {"e-blow": PlannerSpec("eblow-1d"), "greedy": PlannerSpec("greedy-1d")}

_FAST = SupervisorConfig(
    heartbeat_interval=0.05,
    lease_timeout=5.0,
    backoff_base=0.01,
    backoff_cap=0.05,
    cancel_grace=0.3,
)


def _grid():
    return grid_jobs(["1T-1", "1T-2"], _PLANNERS, scale=1.0)


def _assert_same_plan(a, b):
    wall = ("runtime_seconds", "lp_solve_seconds", "stage_seconds")
    assert a.job_id == b.job_id
    assert a.writing_time == b.writing_time
    stats_a = {k: v for k, v in a.plan["stats"].items() if k not in wall}
    stats_b = {k: v for k, v in b.plan["stats"].items() if k not in wall}
    assert stats_a == stats_b
    assert {k: v for k, v in a.plan.items() if k != "stats"} == {
        k: v for k, v in b.plan.items() if k != "stats"
    }


def _counter_value(snapshot, name, **labels):
    entry = snapshot["metrics"].get(name)
    if entry is None:
        return 0.0
    total = 0.0
    for series in entry["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            total += series["value"]
    return total


@pytest.fixture()
def baseline():
    """Fault-free serial reference results for the test grid."""
    return run_jobs(_grid())


class TestKillRecovery:
    def test_sigkilled_worker_is_detected_and_jobs_requeued(self, tmp_path, baseline):
        plan = FaultPlan(
            specs=(FaultSpec(kind="kill_worker", match="1T-1", once=True, seconds=0.1),),
            scratch=str(tmp_path / "scratch"),
        )
        (tmp_path / "scratch").mkdir()
        with obs_metrics.collecting() as registry, faults.injecting(plan):
            scheduler = LocalScheduler(2, supervisor=_FAST, journal=tmp_path / "j.jsonl")
            results = run_jobs(_grid(), scheduler=scheduler)
        assert all(r.ok for r in results), [(r.status, r.error) for r in results]
        snapshot = registry.snapshot()
        assert _counter_value(snapshot, "worker_deaths_total") >= 1
        # (the killed worker's own faults_injected_total dies with it — the
        # parent-side death/requeue counters are the observable record)
        assert _counter_value(snapshot, "supervisor_requeues_total", reason="worker_death") >= 1
        for a, b in zip(baseline, results):
            _assert_same_plan(a, b)

    def test_killed_job_burns_an_attempt(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="kill_worker", match="1T-1", once=True, seconds=0.1),),
            scratch=str(tmp_path / "scratch"),
        )
        (tmp_path / "scratch").mkdir()
        jobs = [j for j in _grid() if j.case_name == "1T-1"]
        with faults.injecting(plan):
            results = run_jobs(jobs, scheduler=LocalScheduler(2, supervisor=_FAST))
        assert all(r.ok for r in results)
        # Exactly one of the two 1T-1 jobs was killed; its retry is attempt 2.
        assert sorted(r.attempts for r in results) == [1, 2]
        assert sorted(r.extra["attempt"] for r in results) == [1, 2]


class TestStallRecovery:
    def test_stalled_heartbeat_expires_lease_and_job_recovers(self, tmp_path):
        # Stall the job's heartbeats *and* wedge it past the lease timeout;
        # the supervisor must expire the lease, soft-cancel the worker, and
        # re-run the job cleanly (both faults are once-tokens).
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="stall_heartbeat", match="1T-1", once=True),
                FaultSpec(kind="delay", match="1T-1", once=True, seconds=8.0),
            ),
            scratch=str(scratch),
        )
        config = SupervisorConfig(**{**_FAST.__dict__, "lease_timeout": 0.6})
        jobs = [j for j in _grid() if j.display_label == "e-blow"]
        with obs_metrics.collecting() as registry, faults.injecting(plan):
            scheduler = LocalScheduler(2, supervisor=config, journal=tmp_path / "j.jsonl")
            results = run_jobs(jobs, scheduler=scheduler)
        assert all(r.ok for r in results), [(r.status, r.error) for r in results]
        snapshot = registry.snapshot()
        assert _counter_value(snapshot, "supervisor_lease_expiries_total") >= 1
        assert _counter_value(snapshot, "supervisor_requeues_total", reason="lease_expired") >= 1
        serial = run_jobs(jobs)
        for a, b in zip(serial, results):
            _assert_same_plan(a, b)


class TestPoisonQuarantine:
    def test_always_raising_job_is_quarantined_not_retried_forever(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(kind="raise", match="1T-1"),))  # every attempt
        config = SupervisorConfig(**{**_FAST.__dict__, "max_attempts": 2})
        jobs = [j for j in _grid() if j.display_label == "greedy"]
        with obs_metrics.collecting() as registry, faults.injecting(plan):
            results = run_jobs(jobs, scheduler=LocalScheduler(2, supervisor=config))
        poisoned = [r for r in results if r.case == "1T-1"]
        healthy = [r for r in results if r.case == "1T-2"]
        assert [r.status for r in poisoned] == ["quarantined"]
        assert poisoned[0].attempts == 2
        assert "injected fault" in (poisoned[0].error or "")
        assert all(r.ok for r in healthy)
        snapshot = registry.snapshot()
        assert _counter_value(snapshot, "supervisor_quarantined_total") == 1
        assert _counter_value(snapshot, "faults_injected_total", kind="raise") == 2


class TestStoreCorruption:
    def test_corrupt_write_is_quarantined_on_read_and_job_reruns(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        [job] = grid_jobs(["1T-1"], {"greedy": PlannerSpec("greedy-1d")}, scale=1.0)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_store", once=True),),
            scratch=str(tmp_path / "scratch"),
        )
        (tmp_path / "scratch").mkdir()
        with obs_metrics.collecting() as registry, faults.injecting(plan):
            clean = execute_job(job)
            store.put(job, clean)  # the corrupt_store fault mangles this write
            with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
                assert store.get(job) is None  # quarantined, not served
            rerun = run_jobs([job], scheduler=LocalScheduler(supervisor=_FAST), store=store)[0]
        assert rerun.ok and not rerun.cache_hit
        assert rerun.writing_time == clean.writing_time
        assert _counter_value(registry.snapshot(), "store_quarantined_total") >= 1
        quarantined = list((tmp_path / "cache" / "quarantine").rglob("*.json"))
        assert len(quarantined) == 1
        # The clean re-run's result was persisted and now round-trips.
        served = store.get(job)
        assert served is not None and served.cache_hit


_FAULT_MENU = {
    "kill-eblow": FaultSpec(kind="kill_worker", match="e-blow", once=True, seconds=0.05),
    "kill-greedy": FaultSpec(kind="kill_worker", match="greedy", once=True, seconds=0.05),
    "stall-eblow": FaultSpec(kind="stall_heartbeat", match="e-blow", once=True),
    "raise-greedy": FaultSpec(kind="raise", match="greedy", once=True),
    "delay-eblow": FaultSpec(kind="delay", match="e-blow", once=True, seconds=0.2),
}


class TestFaultInterleavingsProperty:
    """Any once-bounded kill/stall/raise/delay interleaving is plan-invariant."""

    _baseline = None

    @classmethod
    def _reference(cls):
        if cls._baseline is None:
            cls._baseline = run_jobs(_grid())
        return cls._baseline

    @given(
        chosen=st.lists(
            st.sampled_from(sorted(_FAULT_MENU)), min_size=1, max_size=2, unique=True
        )
    )
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_supervised_plans_match_fault_free_serial(self, chosen):
        scratch = tempfile.mkdtemp(prefix="chaos-scratch-")
        plan = FaultPlan(
            specs=tuple(_FAULT_MENU[name] for name in chosen), scratch=scratch
        )
        with faults.injecting(plan):
            results = run_jobs(_grid(), scheduler=LocalScheduler(2, supervisor=_FAST))
        assert all(r.ok for r in results), [(r.status, r.error) for r in results]
        for a, b in zip(self._reference(), results):
            _assert_same_plan(a, b)
