"""Engine orchestration: store-aware batches with telemetry manifests."""

import pytest

from repro.runtime import (
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


class TestEngine:
    def test_broken_consumer_of_pooled_events_warns_once(self):
        calls = []

        def broken(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="dropped") as caught:
            results = run_jobs(_grid()[:2], max_workers=2, on_event=broken)
        assert [r.status for r in results] == ["ok", "ok"]
        assert len(calls) == 1
        assert sum("dropped" in str(w.message) for w in caught) == 1

    def test_grid_is_case_major_and_labelled(self):
        jobs = _grid()
        assert [(j.case, j.display_label) for j in jobs[:3]] == [
            ("1T-1", "e-blow"), ("1T-1", "greedy"), ("1T-2", "e-blow"),
        ]

    def test_second_run_is_served_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        manifest_path = tmp_path / "run.jsonl"
        telemetry = Telemetry(manifest_path)

        first = run_jobs(_grid(), max_workers=2, store=store, telemetry=telemetry)
        assert all(r.ok for r in first)
        assert not any(r.cache_hit for r in first)

        second = run_jobs(_grid(), max_workers=2, store=store, telemetry=telemetry)
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
        streamed = list(iter_jobs(jobs, max_workers=2, store=store))
        assert [(r.case, r.label) for r in streamed] == [
            (j.case, j.display_label) for j in jobs
        ]
        assert [r.cache_hit for r in streamed] == [False, True] * 3

    def test_store_is_populated_even_without_telemetry(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        run_jobs(_grid(), max_workers=1, store=store)
        assert store.stats()["entries"] == 6
