"""Engine orchestration: store-aware batches with telemetry manifests."""

import time

import pytest

from repro.api import OptionField, PlannerHandle, register
from repro.events import emit
from repro.model import StencilPlan
from repro.runtime import (
    LeasePolicy,
    LocalScheduler,
    PlanJob,
    PlannerSpec,
    ResultStore,
    Telemetry,
    grid_jobs,
    iter_jobs,
    read_manifest,
    run_jobs,
    summarize_manifest,
)

_PLANNERS = {"e-blow": PlannerSpec("eblow-1d"), "greedy": PlannerSpec("greedy-1d")}


def _grid():
    return grid_jobs(["1T-1", "1T-2", "1T-3"], _PLANNERS, scale=1.0)


class _LoudPlanner:
    """Emits ``events`` large events back to back, then returns at once.

    Against a consumer that sleeps per event, a job spends nearly all its
    time inside a sink: the consumer itself inline, and the relay's write
    (blocked on a full socket) in a pool worker.
    """

    def __init__(self, events: int, payload_bytes: int) -> None:
        self.events = events
        self.blob = "x" * payload_bytes

    def plan(self, instance) -> StencilPlan:
        for index in range(self.events):
            emit("iteration", iteration=index, blob=self.blob)
        return StencilPlan.empty(instance)


register(
    PlannerHandle(
        "test-loud",
        "test-only planner that streams large events back to back",
        None,
        lambda options: _LoudPlanner(
            options.get("events", 200), options.get("payload_bytes", 100_000)
        ),
        options=(OptionField("events", "int", 200), OptionField("payload_bytes", "int", 100_000)),
    )
)


def _slow_consumer(event):
    time.sleep(0.02)


def _loud_jobs(count):
    return [
        PlanJob(spec=PlannerSpec("test-loud"), case=case, scale=1.0, timeout=0.5)
        for case in ("1T-1", "1T-2")[:count]
    ]


class TestEngine:
    def test_broken_consumer_of_pooled_events_warns_once(self):
        calls = []

        def broken(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="dropped") as caught:
            results = run_jobs(_grid()[:2], scheduler=LocalScheduler(2), on_event=broken)
        assert [r.status for r in results] == ["ok", "ok"]
        assert len(calls) == 1
        assert sum("dropped" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_broken_consumer_is_dropped_once_per_batch(self, max_workers):
        calls = []

        def broken(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="dropped") as caught:
            results = run_jobs(
                _grid()[:2], scheduler=LocalScheduler(max_workers), on_event=broken
            )
        assert [r.status for r in results] == ["ok", "ok"]
        assert len(calls) == 1
        assert sum("dropped" in str(w.message) for w in caught) == 1

    def test_timeout_inside_an_inline_sink_times_the_job_out(self):
        start = time.monotonic()
        [result] = run_jobs(_loud_jobs(1), on_event=_slow_consumer)
        assert result.status == "timeout", result.error
        assert time.monotonic() - start < 3.0

    def test_timeout_inside_a_pooled_sink_times_the_job_out(self):
        results = run_jobs(
            _loud_jobs(2), scheduler=LocalScheduler(2), on_event=_slow_consumer
        )
        assert [r.status for r in results] == ["timeout", "timeout"]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_timeout_inside_a_supervised_sink_times_the_job_out(self, max_workers):
        scheduler = LocalScheduler(max_workers, supervisor=LeasePolicy(max_attempts=1))
        results = run_jobs(_loud_jobs(2), scheduler=scheduler, on_event=_slow_consumer)
        for result in results:
            assert result.status == "quarantined"
            assert result.extra["quarantine_reason"] == "timeout"
            assert "timeout" in result.error

    def test_grid_is_case_major_and_labelled(self):
        jobs = _grid()
        assert [(j.case, j.display_label) for j in jobs[:3]] == [
            ("1T-1", "e-blow"), ("1T-1", "greedy"), ("1T-2", "e-blow"),
        ]

    def test_second_run_is_served_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        manifest_path = tmp_path / "run.jsonl"
        telemetry = Telemetry(manifest_path)

        pooled = LocalScheduler(2)
        first = run_jobs(_grid(), scheduler=pooled, store=store, telemetry=telemetry)
        assert all(r.ok for r in first)
        assert not any(r.cache_hit for r in first)

        second = run_jobs(_grid(), scheduler=pooled, store=store, telemetry=telemetry)
        assert all(r.cache_hit for r in second)
        for a, b in zip(first, second):
            assert a.job_id == b.job_id
            assert a.writing_time == b.writing_time
            assert a.plan == b.plan

        records = read_manifest(manifest_path)
        summary = summarize_manifest(records)
        assert summary["jobs"] == 12
        assert summary["ok"] == 12
        assert summary["cache_hits"] == 6
        assert summary["cache_hit_rate"] == 0.5

    def test_results_stream_in_order_with_mixed_hits(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        jobs = _grid()
        # Warm only the greedy cells; e-blow cells must still come back in place.
        run_jobs([j for j in jobs if j.display_label == "greedy"], store=store)
        streamed = list(iter_jobs(jobs, scheduler=LocalScheduler(2), store=store))
        assert [(r.case, r.label) for r in streamed] == [
            (j.case, j.display_label) for j in jobs
        ]
        assert [r.cache_hit for r in streamed] == [False, True] * 3

    def test_store_is_populated_even_without_telemetry(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        run_jobs(_grid(), store=store)
        assert store.stats()["entries"] == 6
