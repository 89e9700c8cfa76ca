"""Same-host doorbells: spool changes wake idle workers and collecting drivers.

Every waiter here polls every 30 s, so a test that finishes in seconds
shows that a ring woke it, not its poll.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.dist import Broker, BrokerConfig, BrokerScheduler, WorkerAgent
from repro.dist.bells import CLAIM, DONE, Doorbell, host_tag, ring
from repro.runtime import PlannerSpec, execute_job, run_jobs
from repro.runtime.jobs import JobResult, PlanJob
from repro.serve import ServeClient

_SRC = str(Path(repro.__file__).resolve().parents[1])
_POLL = 30.0
#: Far below one poll; generous for a loaded box.
_WOKEN = 10.0


def _job(case="1T-1", planner="greedy-1d"):
    return PlanJob(spec=PlannerSpec(planner), case=case, scale=1.0)


def _markers(broker):
    return sorted(path.name for path in broker.bells.iterdir())


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached within the timeout")


class _WorkerThread:
    """A WorkerAgent on a thread that polls only every 30 s."""

    def __init__(self, broker, **kwargs):
        kwargs.setdefault("poll_interval", _POLL)
        self.agent = WorkerAgent(broker, mark_process=False, **kwargs)
        self.summary = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.summary = self.agent.run()

    def __enter__(self):
        self.thread.start()
        # Bound (its marker is listed) before anything is spooled.
        _wait_for(lambda: any(CLAIM in name for name in _markers(self.agent.broker)))
        return self

    def __exit__(self, exc_type, exc, tb):
        self.agent.request_stop()
        self.thread.join(timeout=_WOKEN)
        assert not self.thread.is_alive(), "request_stop did not wake the idle worker"


class TestWake:
    def test_idle_worker_claims_a_same_host_job_before_its_poll_ends(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        with _WorkerThread(broker) as worker:
            time.sleep(0.2)  # let it finish its first empty claim and wait
            start = time.monotonic()
            assert broker.enqueue(_job()) == "queued"
            _wait_for(lambda: broker.status_of(_job().job_id) == "done", timeout=_WOKEN)
            assert time.monotonic() - start < _WOKEN
        assert worker.summary["committed"] == 1

    def test_driver_collects_a_same_host_commit_before_its_poll_ends(self, tmp_path):
        with BrokerScheduler(tmp_path / "spool", workers=0,
                             poll_interval=_POLL) as scheduler:
            with _WorkerThread(scheduler.broker):
                start = time.monotonic()
                [result] = run_jobs([_job()], scheduler=scheduler)
                elapsed = time.monotonic() - start
        assert result.ok
        assert elapsed < _WOKEN

    def test_two_threads_collecting_through_one_scheduler_both_wake(self, tmp_path):
        jobs = [_job("1T-1"), _job("1T-2")]
        results = {}
        with BrokerScheduler(tmp_path / "spool", workers=0,
                             poll_interval=_POLL) as scheduler:
            with _WorkerThread(scheduler.broker):
                def collect(job):
                    [results[job.case]] = scheduler.run_jobs([job])

                threads = [threading.Thread(target=collect, args=(job,)) for job in jobs]
                start = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=_WOKEN)
                elapsed = time.monotonic() - start
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == ["1T-1", "1T-2"]
        assert all(result.ok for result in results.values())
        assert elapsed < _WOKEN

    def test_idle_worker_exits_on_sigterm_before_its_poll_ends(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--broker", str(broker.root),
             "--poll", str(_POLL), "--worker-id", "sleepy"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _wait_for(lambda: f"{CLAIM}.{host_tag()}.sleepy" in _markers(broker))
            time.sleep(0.3)  # idle inside its wait
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=_WOKEN)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert elapsed < _WOKEN
        assert _markers(broker) == []
        assert list(broker.workers.iterdir()) == []


class TestMarkers:
    def test_a_stale_marker_is_removed_by_the_next_ring(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        bell = Doorbell(broker.bells, CLAIM, "crashed")
        bell._sock.close()  # the socket died; its marker was never unlinked
        foreign = broker.bells / f"{CLAIM}.another-host.remote"
        foreign.touch()
        assert _markers(broker) == sorted([bell.marker.name, foreign.name])
        assert broker.enqueue(_job()) == "queued"
        # Refused on this host: unlisted.  Another host's marker is never
        # rung from here, so it is left alone.
        assert _markers(broker) == [foreign.name]

    def test_a_live_bell_answers_and_keeps_its_marker(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        bell = Doorbell(broker.bells, DONE, "driver")
        try:
            assert not bell.wait(0.0)
            lease_job = _job()
            broker.enqueue(lease_job)
            assert not bell.wait(0.0)  # enqueue rings claim bells only
            lease = broker.claim("w1")
            assert broker.commit(lease, execute_job(lease.job)) == "committed"
            ring(broker.bells, DONE)  # a second ring before the waiter wakes
            assert bell.wait(0.0)
            assert not bell.wait(0.0)  # one wake consumed every pending ring
            assert _markers(broker) == [bell.marker.name]
        finally:
            bell.close()
        assert _markers(broker) == []

    def test_a_bell_that_cannot_bind_warns_and_waits_out_its_poll(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        first = Doorbell(broker.bells, CLAIM, "twin")
        try:
            with pytest.warns(RuntimeWarning, match="could not be bound"):
                second = Doorbell(broker.bells, CLAIM, "twin")  # a duplicate worker id
            ring(broker.bells, CLAIM)
            assert first.wait(0.0)
            start = time.monotonic()
            assert not second.wait(0.05)
            assert time.monotonic() - start >= 0.04
            second.close()
            assert _markers(broker) == [first.marker.name]  # the live bell's marker stays
        finally:
            first.close()

    def test_quarantine_rings_the_done_bells(self, tmp_path):
        broker = Broker.create(tmp_path / "spool", config=BrokerConfig(max_attempts=1))
        bell = Doorbell(broker.bells, DONE, "driver")
        try:
            job = _job()
            broker.enqueue(job)
            lease = broker.claim("w1")
            failed = JobResult(job_id=job.job_id, case=job.case_name, label=job.display_label,
                               planner=job.spec.planner, status="error", error="injected")
            assert broker.release(lease, failed) == "quarantined"
            assert bell.wait(0.0)
        finally:
            bell.close()

    def test_reap_removes_a_dead_workers_marker_with_its_registry_entry(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        broker.register_worker("dead", pid=gone.pid)
        bell = Doorbell(broker.bells, CLAIM, "dead")
        bell._sock.close()  # kill -9: nothing was unlinked
        (broker.bells / f"{CLAIM}.another-host.dead").touch()
        live = Doorbell(broker.bells, CLAIM, "alive")
        broker.register_worker("alive")
        try:
            summary = broker.reap()
            assert summary["worker_deaths"] == 1
            assert [p.stem for p in broker.workers.iterdir()] == ["alive"]
            assert _markers(broker) == [live.marker.name]
        finally:
            live.close()

    def test_no_marker_outlives_a_clean_worker_exit(self, tmp_path):
        broker = Broker.create(tmp_path / "spool")
        broker.enqueue(_job())
        summary = WorkerAgent(broker, mark_process=False, poll_interval=_POLL,
                              max_jobs=1).run()
        assert summary["committed"] == 1
        assert _markers(broker) == []

    def test_no_marker_outlives_a_scheduler_close(self, tmp_path):
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        with BrokerScheduler(tmp_path / "spool", config=config, workers=1,
                             poll_interval=_POLL, wait_timeout=120.0) as scheduler:
            [result] = run_jobs([_job()], scheduler=scheduler)
            assert result.ok
            # The owned worker's bell is listed; the driver's closed with
            # the batch.
            assert [name.split(".")[0] for name in _markers(scheduler.broker)] == [CLAIM]
        assert _markers(scheduler.broker) == []
        assert list(scheduler.broker.workers.iterdir()) == []

    def test_no_marker_outlives_a_serve_broker_drain(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        spool = tmp_path / "spool"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
             "--broker", str(spool), "--workers", "1",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Printed once the socket listens (its file exists a little earlier).
            assert "listening on" in proc.stdout.readline()
            with ServeClient(socket=socket_path, timeout=120) as client:
                assert client.plan("1T-1", scale=0.12).ok
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert list((spool / "default" / "bells").iterdir()) == []
        assert list((spool / "default" / "workers").iterdir()) == []


@pytest.mark.parametrize("kind", [CLAIM, DONE])
def test_ring_never_fails_a_spool_change(tmp_path, kind):
    broker = Broker.create(tmp_path / "spool")
    # A marker of this host that no socket ever answered, and a name the
    # ringer cannot parse: neither may raise out of a spool change.
    (broker.bells / f"{kind}.{host_tag()}.ghost").touch()
    (broker.bells / "junk").touch()
    assert broker.enqueue(_job()) == "queued"
    lease = broker.claim("w1")
    assert broker.commit(lease, execute_job(lease.job)) == "committed"
    assert _markers(broker) == ["junk"]
