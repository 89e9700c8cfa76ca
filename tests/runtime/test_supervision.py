"""Supervised execution: journal, leases, retries, quarantine, resume."""

import errno
import random

import pytest

from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.runtime import (
    JobJournal,
    LocalScheduler,
    PlanJob,
    PlannerPool,
    PlannerSpec,
    ResultStore,
    SupervisorConfig,
    Telemetry,
    grid_jobs,
    run_jobs,
    summarize_manifest,
)

_PLANNERS = {"e-blow": PlannerSpec("eblow-1d"), "greedy": PlannerSpec("greedy-1d")}

#: Fast-turnaround knobs for tests (real default lease_timeout is 15s).
_FAST = SupervisorConfig(
    heartbeat_interval=0.05,
    lease_timeout=5.0,
    backoff_base=0.01,
    backoff_cap=0.05,
    cancel_grace=0.2,
)


def _grid():
    return grid_jobs(["1T-1", "1T-2"], _PLANNERS, scale=1.0)


def _assert_same_plan(a, b):
    """Bit-identical plans, ignoring wall-clock stats (PR-5 identity contract)."""
    wall = ("runtime_seconds", "lp_solve_seconds", "stage_seconds")
    assert a.job_id == b.job_id
    assert a.writing_time == b.writing_time
    assert a.num_selected == b.num_selected
    stats_a = {k: v for k, v in a.plan["stats"].items() if k not in wall}
    stats_b = {k: v for k, v in b.plan["stats"].items() if k not in wall}
    assert stats_a == stats_b
    assert {k: v for k, v in a.plan.items() if k != "stats"} == {
        k: v for k, v in b.plan.items() if k != "stats"
    }


def _poison_job(case="1T-1"):
    """A job that fails deterministically on every attempt."""
    return PlanJob(spec=PlannerSpec("eblow-2d"), case=case, scale=1.0)  # wrong kind


class TestJobJournal:
    def test_append_read_replay_round_trip(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        journal = JobJournal(path)
        journal.append("queued", "aaa", case="1T-1", attempt=0)
        journal.append("leased", "aaa", attempt=1)
        journal.append("requeued", "aaa", reason="worker_death", attempt=1)
        journal.append("leased", "aaa", attempt=2)
        journal.append("done", "aaa", status="ok", attempt=2)
        journal.append("queued", "bbb", case="1T-2", attempt=0)

        records = JobJournal.read(path)
        assert [r["op"] for r in records[:5]] == [
            "queued", "leased", "requeued", "leased", "done",
        ]
        assert all(r["record"] == "lease" and r["v"] == 1 for r in records)

        state = JobJournal.replay(path)
        assert state["aaa"]["state"] == "done"
        assert state["aaa"]["attempts"] == 2
        assert state["bbb"]["state"] == "pending"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        journal = JobJournal(path)
        journal.append("queued", "aaa")
        journal.append("done", "aaa", status="ok")
        with open(path, "a") as handle:
            handle.write('{"record": "lease", "op": "queu')  # crash mid-write
        state = JobJournal.replay(path)
        assert state == {"aaa": {"state": "done", "attempts": 0, "status": "ok"}}

    def test_unwritable_journal_degrades_without_failing_the_run(self, tmp_path):
        """ENOSPC-style write failures must never take the batch down: the
        journal flips to degraded, warns exactly once, keeps the in-memory
        mirror complete, and counts the event."""
        import os

        from repro.obs import metrics as obs_metrics

        path = tmp_path / "run.journal.jsonl"
        with obs_metrics.collecting() as registry:
            journal = JobJournal(path)
            journal.append("queued", "aaa")
            # Make the next append fail mid-run (IsADirectoryError is the
            # portable stand-in for a full/unwritable filesystem).
            os.remove(path)
            os.mkdir(path)
            with pytest.warns(RuntimeWarning, match="no longer writable"):
                journal.append("leased", "aaa", attempt=1)
            # Later appends stay silent — one warning per journal, not per op.
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                journal.append("done", "aaa", status="ok")
        assert journal.degraded is True
        assert [r["op"] for r in journal.records] == ["queued", "leased", "done"]
        snapshot = registry.snapshot()
        series = snapshot["metrics"]["journal_write_errors_total"]["series"]
        assert sum(s["value"] for s in series) == 1

    def test_fresh_journal_truncates_resume_replays(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        JobJournal(path).append("queued", "aaa")
        resumed = JobJournal(path, resume=True)
        assert resumed.prior == {"aaa": {"state": "pending", "attempts": 0}}
        fresh = JobJournal(path)  # resume=False starts over
        assert fresh.prior == {}
        assert path.read_text() == ""

    def test_attached_ledger_keeps_no_records_in_memory(self, tmp_path):
        # A shared ledger is appended by long-lived daemons and workers:
        # it lives on disk only, however many records they write.
        path = tmp_path / "ledger.jsonl"
        ledger = JobJournal(path, attach=True)
        for index in range(100):
            ledger.append("queued", f"job-{index}")
        assert ledger.records == []
        assert len(JobJournal.read(path)) == 100


class TestBackoff:
    def test_deterministic_and_capped(self):
        config = SupervisorConfig(
            backoff_base=0.1, backoff_cap=0.8, backoff_jitter=0.5, max_attempts=8
        )
        a = [config.requeue_delay(n, random.Random(0)) for n in range(1, 8)]
        b = [config.requeue_delay(n, random.Random(0)) for n in range(1, 8)]
        assert a == b  # seeded RNG -> identical schedule
        assert all(delay <= 0.8 * 1.5 for delay in a)  # cap * (1 + jitter)
        bases = [
            SupervisorConfig(backoff_jitter=0.0, max_attempts=8).requeue_delay(
                n, random.Random(0)
            )
            for n in range(1, 5)
        ]
        assert bases == [0.1, 0.2, 0.4, 0.8]  # doubling, no jitter

    def test_spent_attempts_quarantine(self):
        config = SupervisorConfig(max_attempts=2)
        assert config.requeue_delay(1, random.Random(0)) is not None
        assert config.requeue_delay(2, random.Random(0)) is None

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValidationError):
            SupervisorConfig(lease_timeout=0.0)


class TestSupervisedBatch:
    def test_matches_unsupervised_run(self, tmp_path):
        plain = run_jobs(_grid())
        scheduler = LocalScheduler(2, supervisor=_FAST, journal=tmp_path / "j.jsonl")
        supervised = run_jobs(_grid(), scheduler=scheduler)
        assert [(r.case, r.label) for r in supervised] == [
            (r.case, r.label) for r in plain
        ]
        for a, b in zip(plain, supervised):
            assert b.ok
            _assert_same_plan(a, b)

    def test_journal_records_full_lifecycle(self, tmp_path):
        path = tmp_path / "j.jsonl"
        results = run_jobs(_grid(), scheduler=LocalScheduler(supervisor=_FAST, journal=path))
        assert all(r.ok for r in results)
        state = JobJournal.replay(path)
        assert set(state) == {r.job_id for r in results}
        assert all(entry["state"] == "done" for entry in state.values())
        ops = [r["op"] for r in JobJournal.read(path) if r["job_id"] == results[0].job_id]
        assert ops == ["queued", "leased", "done"]

    def test_attempt_is_stamped_into_result_and_extra(self, tmp_path):
        results = run_jobs(_grid(), scheduler=LocalScheduler(2, supervisor=_FAST))
        for result in results:
            assert result.attempts == 1
            assert result.extra["attempt"] == 1

    def test_store_hits_skip_the_pool(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        first = run_jobs(_grid(), scheduler=LocalScheduler(supervisor=_FAST), store=store)
        second = run_jobs(_grid(), scheduler=LocalScheduler(supervisor=_FAST), store=store)
        assert not any(r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        for a, b in zip(first, second):
            assert a.plan == b.plan

    def test_engine_delegates_to_supervision(self, tmp_path):
        path = tmp_path / "j.jsonl"
        scheduler = LocalScheduler(supervisor=_FAST, journal=path)
        results = run_jobs(_grid(), scheduler=scheduler)
        assert all(r.ok for r in results)
        assert all(e["state"] == "done" for e in JobJournal.replay(path).values())

    def test_engine_max_attempts_override(self):
        config = SupervisorConfig(**{**_FAST.__dict__, "max_attempts": 1})
        results = run_jobs([_poison_job()], scheduler=LocalScheduler(supervisor=config))
        [result] = results
        assert result.status == "quarantined"
        assert result.attempts == 1


class TestInlineFallback:
    def test_unspawnable_pool_degrades_to_inline(self, tmp_path, monkeypatch):
        def unspawnable(self, jobs, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(PlannerPool, "submit", unspawnable)
        path = tmp_path / "j.jsonl"
        jobs = _grid()
        with obs_metrics.collecting() as registry:
            results = run_jobs(
                jobs, scheduler=LocalScheduler(2, supervisor=_FAST, journal=path)
            )
        for a, b in zip(run_jobs(_grid()), results):
            assert b.ok
            _assert_same_plan(a, b)
        ops = [record["op"] for record in JobJournal.read(path)]
        assert ops.count("fallback") == len(jobs)
        metrics = registry.snapshot()["metrics"]

        def total(name):
            return sum(s["value"] for s in metrics.get(name, {"series": []})["series"])

        assert total("supervisor_inline_fallbacks_total") == len(jobs)
        # Every dispatch raised, so no worker ever started, let alone died.
        assert total("pool_breaks_total") == 3
        assert total("worker_deaths_total") == 0


class TestQuarantine:
    def test_poison_job_is_quarantined_after_max_attempts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = SupervisorConfig(
            **{**_FAST.__dict__, "max_attempts": 2}
        )
        jobs = [_poison_job(), PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-2", scale=1.0)]
        results = run_jobs(jobs, scheduler=LocalScheduler(supervisor=config, journal=path))
        assert results[0].status == "quarantined"
        assert results[0].attempts == 2
        assert results[0].error  # the underlying failure is preserved
        assert results[0].extra["quarantine_reason"] == "error"
        assert results[1].ok
        state = JobJournal.replay(path)
        assert state[jobs[0].job_id]["state"] == "quarantined"
        ops = [r["op"] for r in JobJournal.read(path) if r["job_id"] == jobs[0].job_id]
        assert ops == ["queued", "leased", "requeued", "leased", "quarantined"]

    def test_quarantined_results_reach_telemetry(self, tmp_path):
        telemetry = Telemetry(tmp_path / "run.jsonl")
        config = SupervisorConfig(**{**_FAST.__dict__, "max_attempts": 1})
        run_jobs([_poison_job()], scheduler=LocalScheduler(supervisor=config), telemetry=telemetry)
        summary = summarize_manifest(telemetry.records)
        assert summary["quarantined"] == 1
        assert summary["cancelled"] == 0


class TestResume:
    def test_resume_without_journal_raises(self):
        with pytest.raises(ValueError):
            LocalScheduler(resume=True)

    def test_resume_runs_only_unfinished_jobs(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        path = tmp_path / "j.jsonl"
        jobs = _grid()
        # "Crash" after the first two jobs: only they reach store + journal.
        run_jobs(jobs[:2], scheduler=LocalScheduler(supervisor=_FAST, journal=path), store=store)
        assert store.stats()["entries"] == 2

        journal = JobJournal(path, resume=True)
        scheduler = LocalScheduler(supervisor=_FAST, journal=journal, resume=True)
        resumed = run_jobs(jobs, scheduler=scheduler, store=store)
        assert [r.cache_hit for r in resumed] == [True, True, False, False]
        assert all(r.ok for r in resumed)

        # Bit-identical to a fault-free serial run, identical job ids.
        serial = run_jobs(_grid())
        for a, b in zip(serial, resumed):
            _assert_same_plan(a, b)

    def test_resume_preserves_quarantine_without_rerunning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = SupervisorConfig(**{**_FAST.__dict__, "max_attempts": 1})
        job = _poison_job()
        run_jobs([job], scheduler=LocalScheduler(supervisor=config, journal=path))

        journal = JobJournal(path, resume=True)
        [resumed] = run_jobs(
            [job], scheduler=LocalScheduler(supervisor=config, journal=journal, resume=True)
        )
        assert resumed.status == "quarantined"
        assert resumed.extra["resumed"] is True
        # The journal gained no new lease ops for the poisoned job.
        ops = [r["op"] for r in JobJournal.read(path)]
        assert ops.count("quarantined") == 1
        assert ops.count("leased") == 1


class TestSummarizeManifest:
    def test_counts_cancelled_and_quarantined(self):
        telemetry = Telemetry()
        config = SupervisorConfig(**{**_FAST.__dict__, "max_attempts": 1})
        run_jobs([_poison_job()], scheduler=LocalScheduler(supervisor=config), telemetry=telemetry)
        summary = summarize_manifest(telemetry.records)
        assert summary["jobs"] == 1
        assert summary["quarantined"] == 1
