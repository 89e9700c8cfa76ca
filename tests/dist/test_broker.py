"""Unit tests of the durable broker spool: claims, epochs, commit fencing."""

import errno
import json
import os
import sys
import threading
import time

import pytest

from repro.dist import Broker, BrokerConfig, job_from_payload, job_payload
from repro.errors import ValidationError
from repro.runtime import JobJournal, PlannerSpec, ResultStore
from repro.runtime.jobs import JobResult, PlanJob
from repro.workloads import build_instance


def _job(case="1T-1", planner="greedy-1d", label="greedy"):
    return PlanJob(spec=PlannerSpec(planner), case=case, scale=1.0, label=label)


def _ok_result(job, writing_time=100.0):
    return JobResult(
        job_id=job.job_id, case=job.case_name, label=job.display_label,
        planner=job.spec.planner, status="ok", writing_time=writing_time,
        num_selected=3, plan={"assignment": [0, 1], "stats": {"runtime_seconds": 0.1}},
    )


def _failed_result(job, status="error"):
    return JobResult(
        job_id=job.job_id, case=job.case_name, label=job.display_label,
        planner=job.spec.planner, status=status, error="injected",
    )


class TestPayload:
    def test_case_job_round_trips_with_identical_identity(self):
        job = _job()
        rebuilt = job_from_payload(job_payload(job))
        assert rebuilt.job_id == job.job_id
        assert rebuilt.instance_hash == job.instance_hash
        assert rebuilt.config_hash == job.config_hash
        assert rebuilt.case == job.case and rebuilt.scale == job.scale
        assert rebuilt.spec == job.spec

    def test_inline_instance_ships_fully(self):
        instance = build_instance("1T-1", 1.0)
        job = PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance, label="inline")
        rebuilt = job_from_payload(job_payload(job))
        assert rebuilt.job_id == job.job_id
        assert rebuilt.instance is not None
        assert rebuilt.instance.to_dict() == instance.to_dict()

    def test_payload_is_json_serializable(self):
        payload = job_payload(_job())
        assert json.loads(json.dumps(payload)) == payload


class TestLifecycle:
    def test_create_is_idempotent_and_keeps_persisted_config(self, tmp_path):
        first = Broker.create(tmp_path, config=BrokerConfig(lease_timeout=3.5))
        again = Broker.create(tmp_path, config=BrokerConfig(lease_timeout=99.0))
        assert first.config.lease_timeout == 3.5
        assert again.config.lease_timeout == 3.5  # restart keeps the original

    def test_open_requires_an_existing_spool(self, tmp_path):
        with pytest.raises(ValidationError):
            Broker.open(tmp_path / "nope", wait=0.0)

    def test_enqueue_is_idempotent(self, tmp_path):
        broker = Broker.create(tmp_path)
        job = _job()
        assert broker.enqueue(job) == "queued"
        assert broker.enqueue(job) == "exists"

    def test_claim_commit_fetch(self, tmp_path):
        broker = Broker.create(tmp_path)
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        assert lease is not None and lease.epoch == 1
        assert lease.job.job_id == job.job_id
        # The lease file blocks concurrent claims of the same job.
        assert broker.claim("w2") is None
        assert broker.commit(lease, _ok_result(job)) == "committed"
        fetched = broker.fetch(job)
        assert fetched is not None and fetched.ok
        assert fetched.writing_time == 100.0
        assert fetched.attempts == 1
        # Spool is clean: the payload and lease are gone, the marker stays.
        assert broker.status_of(job.job_id) == "done"
        assert not list(broker.queued.glob("*.json"))
        assert not list(broker.leased.glob("*.json"))

    def test_enqueue_after_commit_reports_done(self, tmp_path):
        broker = Broker.create(tmp_path)
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        broker.commit(lease, _ok_result(job))
        assert broker.enqueue(job) == "done"

    def test_failed_release_requeues_with_backoff(self, tmp_path):
        broker = Broker.create(tmp_path, config=BrokerConfig(backoff_base=5.0, backoff_cap=5.0))
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        assert broker.release(lease, _failed_result(job)) == "requeued"
        assert broker.status_of(job.job_id) == "queued"
        # retry_at is in the future, so an immediate re-claim is refused.
        assert broker.claim("w1") is None
        meta = json.loads((broker.meta / f"{job.job_id}.json").read_text())
        assert meta["retry_at"] > time.time()
        # The backoff is ledgered under the supervisor journal's name.
        assert JobJournal.read(broker.ledger_path)[-1]["retry_in"] >= 5.0

    def test_poison_job_quarantines_after_max_attempts(self, tmp_path):
        broker = Broker.create(
            tmp_path, config=BrokerConfig(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        )
        job = _job()
        broker.enqueue(job)
        for attempt in (1, 2):
            lease = broker.claim(f"w{attempt}")
            assert lease is not None and lease.epoch == attempt
            outcome = broker.release(lease, _failed_result(job))
        assert outcome == "quarantined"
        assert broker.status_of(job.job_id) == "quarantined"
        fetched = broker.fetch(job)
        assert fetched.status == "quarantined"
        assert fetched.attempts == 2

    def test_store_backed_commit_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        broker = Broker.create(
            tmp_path / "spool", config=BrokerConfig(store_dir=str(tmp_path / "store"))
        )
        job = _job()
        result = _ok_result(job)
        broker.enqueue(job)
        lease = broker.claim("w1")
        assert broker.commit(lease, result) == "committed"
        # ok results land in the store, and the marker carries no duplicate.
        assert store.get(job) is not None
        marker = json.loads((broker.done / f"{job.job_id}.json").read_text())
        assert "result" not in marker
        fetched = broker.fetch(job)
        assert fetched.writing_time == result.writing_time

    def test_driver_on_other_code_fetches_the_workers_commit(self, tmp_path, monkeypatch):
        """The store namespaces by code version; fetch reads the committer's."""
        config = BrokerConfig(store_dir=str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CACHE_VERSION", "ci-old")
        worker_side = Broker.create(tmp_path / "spool", config=config)
        job = _job()
        worker_side.enqueue(job)
        lease = worker_side.claim("w1")
        assert worker_side.commit(lease, _ok_result(job)) == "committed"

        monkeypatch.setenv("REPRO_CACHE_VERSION", "ci-new")
        driver_side = Broker.open(tmp_path / "spool")
        assert driver_side.store.version == "ci-new"
        assert driver_side.store.get(job) is None  # not a hit for new code...
        fetched = driver_side.fetch(job)  # ...but the committed result is found
        assert fetched is not None and fetched.ok
        assert fetched.writing_time == _ok_result(job).writing_time
        assert fetched.cache_hit is False
        marker = json.loads((worker_side.done / f"{job.job_id}.json").read_text())
        assert marker["store_version"] == "ci-old" and "result" not in marker

    def test_failed_store_write_ships_the_result_on_the_marker(self, tmp_path, monkeypatch):
        def full(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.runtime.store.write_text_atomic", full)
        broker = Broker.create(
            tmp_path / "spool", config=BrokerConfig(store_dir=str(tmp_path / "store"))
        )
        jobs = [_job("1T-1"), _job("1T-2")]
        with pytest.warns(RuntimeWarning, match="No space left") as caught:
            for job in jobs:
                broker.enqueue(job)
                lease = broker.claim("w1")
                assert broker.commit(lease, _ok_result(job)) == "committed"
        assert sum("rejected" in str(w.message) for w in caught) == 1
        for job in jobs:
            marker = json.loads((broker.done / f"{job.job_id}.json").read_text())
            assert marker["result"]["plan"] == _ok_result(job).plan
            fetched = broker.fetch(job)
            assert fetched.ok and fetched.plan == _ok_result(job).plan
        assert broker.enqueue(jobs[0]) == "done"


class TestReap:
    def _age(self, path, seconds):
        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_stale_lease_is_expired_and_requeued(self, tmp_path):
        broker = Broker.create(
            tmp_path, config=BrokerConfig(lease_timeout=1.0, backoff_base=0.0, backoff_cap=0.0)
        )
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        self._age(broker.leased / f"{job.job_id}.json", 5.0)
        summary = broker.reap()
        assert summary["expired"] == 1
        assert broker.status_of(job.job_id) == "queued"
        # The ledger shows the retry that follows the expiry.
        records = JobJournal.read(broker.ledger_path)
        assert [r["op"] for r in records[-2:]] == ["lease_expired", "requeued"]
        assert records[-1]["reason"] == "lease_expired"
        assert records[-1]["attempt"] == lease.epoch
        assert records[-1]["retry_in"] == 0.0
        # The next claim runs at the bumped epoch — the fencing token moved on.
        lease2 = broker.claim("w2")
        assert lease2 is not None and lease2.epoch == lease.epoch + 1

    def test_dead_worker_expires_its_leases_immediately(self, tmp_path):
        import subprocess
        import sys

        broker = Broker.create(tmp_path, config=BrokerConfig(lease_timeout=60.0))
        job = _job()
        broker.enqueue(job)
        # A real, already-reaped pid: guaranteed dead, never recycled this fast.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        broker.register_worker("w1", pid=proc.pid)
        lease = broker.claim("w1", pid=proc.pid)
        assert lease is not None
        summary = broker.reap()
        assert summary["worker_deaths"] == 1
        assert summary["expired"] == 1
        assert broker.status_of(job.job_id) == "queued"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        broker = Broker.create(tmp_path, config=BrokerConfig(lease_timeout=0.3))
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        time.sleep(0.4)
        assert broker.heartbeat(lease) is True  # refreshes the mtime
        assert broker.reap()["expired"] == 0

    def test_heartbeat_refuses_a_superseded_lease(self, tmp_path):
        broker = Broker.create(
            tmp_path, config=BrokerConfig(lease_timeout=0.5, backoff_base=0.0, backoff_cap=0.0)
        )
        job = _job()
        broker.enqueue(job)
        stale = broker.claim("w1")
        self._age(broker.leased / f"{job.job_id}.json", 5.0)
        broker.reap()
        fresh = broker.claim("w2")
        assert fresh is not None
        # The original worker wakes up: it must not refresh w2's lease.
        assert broker.heartbeat(stale) is False
        assert stale.lost is True
        assert broker.heartbeat(fresh) is True


    def test_reap_reports_each_commit_once(self, tmp_path):
        broker = Broker.create(tmp_path)
        assert broker.reap()["committed"] == 0  # no ledger yet
        jobs = [_job(), _job(case="1T-2")]
        for job in jobs:
            broker.enqueue(job)
        for _ in jobs:
            lease = broker.claim("w1")
            broker.commit(lease, _ok_result(lease.job))
        with open(broker.ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "lease", "op": "do')  # a record mid-write
        assert broker.reap()["committed"] == 2
        assert broker.reap()["committed"] == 0
        # A driver attaching later starts from the ledger's end.
        assert Broker.create(tmp_path).reap()["committed"] == 0

    def test_concurrent_reaps_report_each_commit_once(self, tmp_path):
        # One commit's ring wakes every thread collecting through a driver
        # at once, and they all reap through one Broker.
        broker = Broker.create(tmp_path)
        broker.reap()  # marks where the ledger ends
        counted = []
        stop = threading.Event()

        def reaper():
            while not stop.is_set():
                counted.append(broker.reap()["committed"])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reaper) for _ in range(8)]
            for thread in threads:
                thread.start()
            for index in range(300):
                broker.ledger.append("done", f"job-{index}")
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(counted) + broker.reap()["committed"] == 300


class TestLedger:
    def test_ledger_shares_the_journal_schema(self, tmp_path):
        broker = Broker.create(tmp_path)
        job = _job()
        broker.enqueue(job)
        lease = broker.claim("w1")
        broker.commit(lease, _ok_result(job))
        state = JobJournal.replay(broker.ledger_path)
        assert state[job.job_id]["state"] == "done"
        ops = [r["op"] for r in JobJournal.read(broker.ledger_path)]
        assert ops == ["queued", "leased", "done"]

    def test_torn_ledger_line_is_tolerated(self, tmp_path):
        broker = Broker.create(tmp_path)
        job = _job()
        broker.enqueue(job)
        with open(broker.ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "lease", "op": "le')  # crash mid-write
        # Reads skip the torn tail (the next append merges with it and is
        # dropped too — one lost bookkeeping line, never a parse failure).
        assert [r["op"] for r in JobJournal.read(broker.ledger_path)] == ["queued"]
        lease = broker.claim("w1")
        broker.commit(lease, _ok_result(job))
        ops = [r["op"] for r in JobJournal.read(broker.ledger_path)]
        assert ops == ["queued", "done"]
        assert JobJournal.replay(broker.ledger_path)[job.job_id]["state"] == "done"
