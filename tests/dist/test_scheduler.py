"""Scheduler interface tests: LocalScheduler parity, BrokerScheduler driving.

Broker execution here hosts the :class:`WorkerAgent` on a thread (same
process, same filesystem protocol) — the real-subprocess fleet is exercised
by ``test_chaos_multinode.py``; these tests pin down dispatch semantics.
"""

import errno
import threading

import pytest

from repro.dist import Broker, BrokerConfig, BrokerScheduler, WorkerAgent
from repro.runtime import (
    LeasePolicy,
    LocalScheduler,
    PlannerSpec,
    ResultStore,
    Telemetry,
    grid_jobs,
    run_jobs,
)
from repro.runtime.portfolio import run_portfolio

_PLANNERS = {"e-blow": PlannerSpec("eblow-1d"), "greedy": PlannerSpec("greedy-1d")}


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


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference for the test grid."""
    return run_jobs(_grid())


class _WorkerThread:
    """A WorkerAgent on a thread, serving the spool until closed."""

    def __init__(self, broker: Broker, **kwargs) -> None:
        kwargs.setdefault("poll_interval", 0.02)
        self.agent = WorkerAgent(broker, mark_process=False, **kwargs)
        self.thread = threading.Thread(target=self.agent.run, daemon=True)
        self.summary = None

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.agent.request_stop()
        self.thread.join(timeout=60.0)
        assert not self.thread.is_alive()


class TestLocalScheduler:
    def test_matches_direct_engine_dispatch(self, tmp_path, baseline):
        store = ResultStore(tmp_path / "store")
        results = run_jobs(_grid(), store=store, scheduler=LocalScheduler(max_workers=2))
        assert all(r.ok for r in results)
        for a, b in zip(baseline, results):
            _assert_same_plan(a, b)

    def test_supervised_variant(self, tmp_path, baseline):
        scheduler = LocalScheduler(max_workers=1, supervisor=LeasePolicy(),
                                   journal=tmp_path / "j.jsonl")
        results = run_jobs(_grid(), scheduler=scheduler)
        assert all(r.ok for r in results)
        for a, b in zip(baseline, results):
            _assert_same_plan(a, b)


class TestBrokerScheduler:
    def test_batch_over_spool_is_bit_identical(self, tmp_path, baseline):
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=60.0) as scheduler:
            manifest = Telemetry(tmp_path / "run.jsonl")
            with _WorkerThread(scheduler.broker):
                results = run_jobs(_grid(), scheduler=scheduler, telemetry=manifest)
        assert [r.status for r in results] == ["ok"] * 4
        for a, b in zip(baseline, results):
            _assert_same_plan(a, b)
        # Results stream in submission order and land in the manifest.
        assert [r["job_id"] for r in manifest.records if r.get("record") == "job"] \
            == [j.job_id for j in _grid()]

    def test_restarted_driver_resumes_from_the_spool(self, tmp_path, baseline):
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=60.0) as scheduler:
            with _WorkerThread(scheduler.broker):
                first = run_jobs(_grid(), scheduler=scheduler)
        assert all(r.ok for r in first)
        # A fresh driver, no workers at all: everything must come back from
        # the spool's done markers + store, instantly.
        with BrokerScheduler(tmp_path / "spool", workers=0, poll_interval=0.02,
                             wait_timeout=5.0) as resumed:
            second = run_jobs(_grid(), scheduler=resumed)
        assert all(r.ok for r in second)
        for a, b in zip(baseline, second):
            _assert_same_plan(a, b)

    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "storeless"])
    def test_computed_jobs_are_not_reported_as_cache_hits(self, tmp_path, with_store):
        config = BrokerConfig(store_dir=str(tmp_path / "store") if with_store else None)
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=60.0) as scheduler:
            manifest = Telemetry(tmp_path / "run.jsonl")
            with _WorkerThread(scheduler.broker):
                first = run_jobs(_grid(), scheduler=scheduler, telemetry=manifest)
            assert [r.cache_hit for r in first] == [False] * 4
            assert manifest.summary()["cache_hits"] == 0
            if with_store:
                # No worker left: the scheduler's store probe serves every job.
                second = run_jobs(_grid(), scheduler=scheduler)
                assert [r.cache_hit for r in second] == [True] * 4

    def test_driver_with_another_store_collects_from_the_spools(self, tmp_path, baseline):
        # The spool was created with store A, so its workers commit into A;
        # the driver is configured with, and probes, store B.
        Broker.create(tmp_path / "spool", config=BrokerConfig(store_dir=str(tmp_path / "A")))
        config = BrokerConfig(store_dir=str(tmp_path / "B"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=5.0) as scheduler:
            with _WorkerThread(scheduler.broker):
                results = run_jobs(_grid()[:2], scheduler=scheduler,
                                   store=ResultStore(tmp_path / "B"))
        assert [r.ok for r in results] == [True, True]
        for a, b in zip(baseline, results):
            _assert_same_plan(a, b)
        assert ResultStore(tmp_path / "A").stats()["entries"] == 2

    def test_driver_collects_a_plan_whose_store_write_failed(self, tmp_path, baseline,
                                                             monkeypatch):
        def full(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.runtime.store.write_text_atomic", full)
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=3.0) as scheduler:
            with _WorkerThread(scheduler.broker):
                with pytest.warns(RuntimeWarning, match="No space left"):
                    [result] = run_jobs(_grid()[:1], scheduler=scheduler)
        assert result.ok
        _assert_same_plan(baseline[0], result)

    @pytest.mark.parametrize("max_respawns, spawned", [(0, 2), (3, 5)])
    def test_fleet_is_bounded_by_max_respawns(self, tmp_path, monkeypatch,
                                              max_respawns, spawned):
        """Dead workers are replaced at most ``max_respawns`` times in all."""

        class _Dead:
            def poll(self):
                return 1

            def wait(self, timeout=None):
                return 1

        calls = []
        monkeypatch.setattr(
            BrokerScheduler, "_spawn_worker", lambda self: calls.append(1) or _Dead()
        )
        with BrokerScheduler(tmp_path / "spool", workers=2,
                             max_respawns=max_respawns) as scheduler:
            for _ in range(5):
                scheduler.ensure_workers()
        assert len(calls) == spawned

    def test_no_workers_times_out_with_diagnostics(self, tmp_path):
        with BrokerScheduler(tmp_path / "spool", workers=0, poll_interval=0.02,
                             wait_timeout=0.3) as scheduler:
            with pytest.raises(TimeoutError, match="is any worker attached"):
                run_jobs(_grid()[:1], scheduler=scheduler)

    def test_portfolio_over_spool_picks_the_right_winner(self, tmp_path, baseline):
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=0,
                             poll_interval=0.02, wait_timeout=60.0) as scheduler:
            with _WorkerThread(scheduler.broker):
                outcome = run_portfolio(
                    "1T-1", _PLANNERS, scale=1.0, scheduler=scheduler,
                    store=scheduler.broker.store,
                )
        assert outcome.ok and outcome.winner is not None
        expected = min(
            (r for r in baseline if r.case == "1T-1"), key=lambda r: r.writing_time
        )
        assert outcome.winner.writing_time == expected.writing_time

    def test_polling_never_lists_settled_jobs(self, tmp_path, monkeypatch):
        # done/ and quarantine/ keep every job the spool ever settled, so a
        # driver's per-poll work must not list them.  Counted as directory
        # listings, with no clock in the assertion.
        import os

        from repro.obs import metrics
        from repro.runtime import JobResult, execute_job

        with BrokerScheduler(tmp_path / "spool", workers=0, poll_interval=0.0) as scheduler:
            broker = scheduler.broker
            for index in range(200):
                (broker.done / f"settled-{index}.json").write_text("{}\n")
            pending, other = _grid()[:2]
            broker.enqueue(other)

            polls, committed = [], []
            real_reap, real_scandir = broker.reap, os.scandir
            listings = {"done": 0, "quarantine": 0}

            def reap():
                summary = real_reap()
                committed.append(summary["committed"])
                return summary

            def fetch(job, store=None):
                polls.append(job.job_id)
                if len(polls) == 10:  # a commit lands while the driver waits
                    lease = broker.claim("w1")
                    assert broker.commit(lease, execute_job(lease.job)) == "committed"
                if len(polls) < 40:
                    return None
                return JobResult(job_id=job.job_id, case=job.case_name,
                                 label=job.display_label, planner=job.spec.planner,
                                 status="ok")

            def scandir(path="."):
                name = os.path.basename(os.fspath(path))
                if name in listings:
                    listings[name] += 1
                return real_scandir(path)

            monkeypatch.setattr(broker, "reap", reap)
            monkeypatch.setattr(broker, "fetch", fetch)
            monkeypatch.setattr(os, "scandir", scandir)
            with metrics.collecting() as registry:
                [result] = scheduler.run_jobs([pending])
        assert result.ok and len(polls) == 40
        # The commit still reads as progress, exactly once.
        assert sum(committed) == 1
        # One listing seeds the settled-state gauges; the 39 polls list nothing.
        assert listings == {"done": 1, "quarantine": 1}
        depth = {
            entry["labels"]["state"]: entry["value"]
            for entry in registry.snapshot()["metrics"]["dist_queue_depth"]["series"]
        }
        assert depth["done"] == 201 and depth["quarantine"] == 0
