"""Result store: round trips, invalidation, integrity, stats, clearing."""

import hashlib
import json
import os

import pytest

from repro.io.serialization import canonical_json
from repro.runtime import PlanJob, PlannerSpec, ResultStore, execute_job


def _job(planner="greedy-1d", options=None, case="1T-1", scale=1.0):
    return PlanJob(spec=PlannerSpec(planner, options or {}), case=case, scale=scale)


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        result = execute_job(job)
        assert store.get(job) is None
        store.put(job, result)
        cached = store.get(job)
        assert cached is not None
        assert cached.cache_hit is True
        assert cached.writing_time == result.writing_time
        assert cached.plan == result.plan
        assert cached.job_id == result.job_id

    def test_only_ok_results_are_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job(planner="eblow-2d")  # wrong kind: fails
        result = execute_job(job)
        assert result.status == "error"
        assert store.put(job, result) is None
        assert store.get(job) is None

    def test_cache_hits_are_not_rewritten(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.put(job, execute_job(job))
        cached = store.get(job)
        path = store.path_for(job)
        mtime = path.stat().st_mtime_ns
        assert store.put(job, cached) is None
        assert path.stat().st_mtime_ns == mtime

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.put(job, execute_job(job))
        store.path_for(job).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
            assert store.get(job) is None


class TestIntegrity:
    def test_entries_are_written_as_digest_envelopes(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.put(job, execute_job(job))
        data = json.loads(store.path_for(job).read_text())
        assert data["record"] == "result"
        assert data["v"] == 1
        expected = hashlib.sha256(
            canonical_json(data["result"]).encode("utf-8")
        ).hexdigest()
        assert data["sha256"] == expected

    def test_digest_mismatch_quarantines_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.put(job, execute_job(job))
        path = store.path_for(job)
        data = json.loads(path.read_text())
        data["result"]["writing_time"] = 1.0  # tamper with the plan body
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="integrity digest mismatch"):
            assert store.get(job) is None
        # The damaged entry moved aside; the slot is a plain miss now.
        assert not path.exists()
        quarantined = list((tmp_path / "quarantine").rglob("*.json"))
        assert len(quarantined) == 1
        assert store.get(job) is None  # no re-warning, genuinely gone

    def test_pre_envelope_entries_are_still_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        result = execute_job(job)
        store.put(job, result)
        path = store.path_for(job)
        body = json.loads(path.read_text())["result"]
        path.write_text(canonical_json(body))  # legacy layout: bare dict
        cached = store.get(job)
        assert cached is not None
        assert cached.cache_hit is True
        assert cached.writing_time == result.writing_time


class TestInvalidation:
    def test_config_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job(planner="eblow-1d")
        store.put(job, execute_job(job))
        assert store.get(job) is not None
        ablated = _job(planner="eblow-1d", options={"ablated": True})
        assert store.get(ablated) is None

    def test_instance_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job(case="1T-1")
        store.put(job, execute_job(job))
        assert store.get(_job(case="1T-2")) is None
        assert store.get(_job(case="1T-1", scale=0.5)) is None

    def test_code_version_change_misses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_VERSION", "v-old")
        old_store = ResultStore(tmp_path)
        job = _job()
        old_store.put(job, execute_job(job))
        assert old_store.get(job) is not None

        monkeypatch.setenv("REPRO_CACHE_VERSION", "v-new")
        new_store = ResultStore(tmp_path)
        assert new_store.get(job) is None


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        store = ResultStore(tmp_path, version="v1")
        for case in ("1T-1", "1T-2"):
            job = _job(case=case)
            store.put(job, execute_job(job))
        other = ResultStore(tmp_path, version="v2")
        job = _job(case="1T-3")
        other.put(job, execute_job(job))

        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["per_version"] == {"v1": 2, "v2": 1}

        assert store.clear() == 2  # only v1
        assert store.stats()["per_version"] == {"v2": 1}
        assert other.clear(all_versions=True) == 1
        assert other.stats()["entries"] == 0

    def test_stats_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert store.stats()["entries"] == 0
        assert store.clear() == 0


class TestLabelRebinding:
    def test_hit_takes_the_requesting_jobs_label(self, tmp_path):
        store = ResultStore(tmp_path)
        writer = PlanJob(
            spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0, label="e-blow"
        )
        store.put(writer, execute_job(writer))
        reader = PlanJob(
            spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0, label="e-blow-1"
        )
        cached = store.get(reader)
        assert cached is not None
        assert cached.label == "e-blow-1"
        assert cached.to_algorithm_result().algorithm == "e-blow-1"


class TestPrune:
    def _populate(self, store, cases=("1T-1", "1T-2", "1T-3")):
        """Write one entry per case with strictly increasing access times."""
        jobs = [_job(case=case) for case in cases]
        for index, job in enumerate(jobs):
            store.put(job, execute_job(job))
            path = store.path_for(job)
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        return jobs

    def test_evicts_least_recently_used_first(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = self._populate(store)
        sizes = [store.path_for(job).stat().st_size for job in jobs]
        # Budget for exactly the two newest entries: the oldest must go.
        report = store.prune(max_bytes=sizes[1] + sizes[2])
        assert report["evicted"] == 1
        assert report["bytes_freed"] == sizes[0]
        assert report["bytes_remaining"] == sizes[1] + sizes[2]
        assert report["entries_remaining"] == 2
        assert store.get(jobs[0]) is None
        assert store.get(jobs[1]) is not None
        assert store.get(jobs[2]) is not None

    def test_get_refreshes_recency(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = self._populate(store)
        # Touch the oldest entry through a hit: it becomes the newest, so a
        # one-entry budget now evicts the other two instead.
        assert store.get(jobs[0]) is not None
        report = store.prune(max_bytes=store.path_for(jobs[0]).stat().st_size)
        assert report["evicted"] == 2
        assert store.get(jobs[0]) is not None
        assert store.get(jobs[1]) is None
        assert store.get(jobs[2]) is None

    def test_zero_budget_clears_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        self._populate(store)
        report = store.prune(max_bytes=0)
        assert report["evicted"] == 3
        assert report["bytes_remaining"] == 0
        assert report["entries_remaining"] == 0

    def test_fitting_store_is_untouched(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = self._populate(store)
        report = store.prune(max_bytes=10**9)
        assert report["evicted"] == 0
        assert report["bytes_freed"] == 0
        assert all(store.get(job) is not None for job in jobs)

    def test_stale_versions_age_out_under_the_same_lru(self, tmp_path):
        old = ResultStore(tmp_path, version="v-old")
        new = ResultStore(tmp_path, version="v-new")
        job = _job()
        old.put(job, execute_job(job))
        os.utime(old.path_for(job), (1, 1))
        new.put(job, execute_job(job))
        report = new.prune(max_bytes=new.path_for(job).stat().st_size)
        assert report["evicted"] == 1
        assert not old.path_for(job).exists()
        assert new.get(job) is not None
        # all_versions=False leaves foreign namespaces alone.
        old2 = ResultStore(tmp_path, version="v-old")
        old2.put(job, execute_job(job))
        report = new.prune(max_bytes=0, all_versions=False)
        assert report["evicted"] == 1
        assert old2.path_for(job).exists()

    def test_evictions_are_counted(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        store = ResultStore(tmp_path)
        self._populate(store)
        with obs_metrics.collecting() as registry:
            store.prune(max_bytes=0)
            snapshot = registry.snapshot()
        series = snapshot["metrics"]["store_evictions_total"]["series"]
        assert series[0]["value"] == 3.0


_FAILED_WRITE_PATHS = ["inline", "pooled", "supervised", "portfolio-serial", "portfolio", "serve"]


def _plan_with_unwritable_store(path, tmp_path, cases):
    """Plan ``cases`` with greedy-1d on ``path``; returns (results, metrics snapshot)."""
    from repro.obs import metrics as obs_metrics
    from repro.runtime import LeasePolicy, LocalScheduler, grid_jobs, run_jobs
    from repro.runtime.portfolio import run_portfolio

    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the store root's parent should be
    root = blocker / "cache"
    if path == "serve":
        from repro.serve import ServeClient, ServeConfig, start_in_thread

        snapshot_path = tmp_path / "serve-metrics.json"
        config = ServeConfig(socket=str(tmp_path / "serve.sock"), workers=1,
                             cache_dir=str(root), metrics_out=str(snapshot_path))
        with start_in_thread(config) as handle:
            with ServeClient(socket=handle.address) as client:
                results = [client.plan(case, planner="greedy-1d", scale=1.0) for case in cases]
        return results, json.loads(snapshot_path.read_text())
    store = ResultStore(root)
    planners = {"greedy": PlannerSpec("greedy-1d")}
    with obs_metrics.collecting() as registry:
        if path.startswith("portfolio"):
            workers = 1 if path == "portfolio-serial" else 2
            results = [
                run_portfolio(case, planners, scale=1.0, store=store, max_workers=workers).winner
                for case in cases
            ]
        else:
            scheduler = {
                "inline": LocalScheduler(),
                "pooled": LocalScheduler(2),
                "supervised": LocalScheduler(2, supervisor=LeasePolicy()),
            }[path]
            jobs = grid_jobs(cases, planners, scale=1.0)
            results = run_jobs(jobs, scheduler=scheduler, store=store)
    return results, registry.snapshot()


class TestFailedWrites:
    @pytest.mark.parametrize("path", _FAILED_WRITE_PATHS)
    def test_plans_are_delivered_and_the_failure_is_counted(self, tmp_path, path):
        import warnings

        cases = ["1T-1", "1T-2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, snapshot = _plan_with_unwritable_store(path, tmp_path, cases)
        assert [r.ok for r in results] == [True, True]
        for case, result in zip(cases, results):
            serial = execute_job(_job(case=case))
            assert result.writing_time == serial.writing_time
            assert {k: v for k, v in result.plan.items() if k != "stats"} == {
                k: v for k, v in serial.plan.items() if k != "stats"
            }
        rejected = [w for w in caught if issubclass(w.category, RuntimeWarning)
                    and "rejected a write" in str(w.message)]
        assert len(rejected) == 1, [str(w.message) for w in caught]
        assert "NotADirectoryError" in str(rejected[0].message)
        series = snapshot["metrics"]["store_write_errors_total"]["series"]
        assert sum(s["value"] for s in series) == len(cases)
