"""Fencing property test (exactly-once under stale late finishes).

The scenario the epochs exist for: a worker claims a job, goes silent past
the lease timeout, the lease is expired and the job re-queued, a second
worker finishes it — and then the original worker *wakes up and finishes
late*.  Whatever the interleaving of that late commit against the re-claim
and the fresh commit, the spool must end with exactly one ``done`` marker,
one store entry, no duplicate ledger ``done`` record — and the plan must be
bit-identical, because job ids are content hashes over deterministic
planners.
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import Broker, BrokerConfig
from repro.runtime import PlannerSpec, ResultStore
from repro.runtime.jobs import PlanJob, execute_job


def _job():
    return PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0, label="greedy")


@pytest.fixture(scope="module")
def reference():
    """One real execution, shared across examples (planning is deterministic)."""
    return execute_job(_job())


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


def _expire(broker, job_id):
    """Age the lease past the timeout and run the reaper."""
    path = broker.leased / f"{job_id}.json"
    past = time.time() - 10 * broker.config.lease_timeout
    os.utime(path, (past, past))
    summary = broker.reap()
    assert summary["expired"] == 1


@settings(deadline=None, max_examples=20)
@given(
    late_commit_first=st.booleans(),
    extra_stale_commits=st.integers(min_value=0, max_value=3),
)
def test_stale_late_finish_is_exactly_once(tmp_path_factory, reference,
                                           late_commit_first, extra_stale_commits):
    """Every interleaving of a stale wake-up yields one marker, one entry.

    ``late_commit_first=True`` is the benign ordering: the original worker
    commits after expiry but *before* anyone re-claims — its epoch is still
    current, so its commit is honoured (the work was real and the result is
    deterministic).  ``False`` is the dangerous ordering: a second worker
    re-claims (bumping the fencing epoch) and finishes first; the late
    commit must then be discarded.  ``extra_stale_commits`` re-fires the
    stale commit to prove discards are idempotent too.
    """
    tmp_path = tmp_path_factory.mktemp("fencing")
    store = ResultStore(tmp_path / "store")
    broker = Broker.create(
        tmp_path / "spool",
        config=BrokerConfig(
            lease_timeout=0.5, backoff_base=0.0, backoff_cap=0.0,
            store_dir=str(tmp_path / "store"),
        ),
    )
    job = _job()
    broker.enqueue(job)

    stale_lease = broker.claim("w-stale")
    assert stale_lease is not None and stale_lease.epoch == 1
    _expire(broker, job.job_id)  # w-stale went silent mid-job

    if late_commit_first:
        # The stale worker finishes before anyone re-claims: its epoch is
        # still the current one, so exactly this commit lands.
        assert broker.commit(stale_lease, reference) == "committed"
        assert broker.claim("w-fresh") is None  # done: nothing left to claim
    else:
        fresh_lease = broker.claim("w-fresh")
        assert fresh_lease is not None and fresh_lease.epoch == 2
        assert broker.commit(fresh_lease, reference) == "committed"
        # Now the original worker wakes up and finishes late — discarded.
        assert broker.commit(stale_lease, reference) == "stale"

    for _ in range(extra_stale_commits):
        assert broker.commit(stale_lease, reference) == "stale"

    # Exactly one done marker, one store entry, and a clean spool.
    assert len(list(broker.done.glob("*.json"))) == 1
    assert len(list(broker.queued.glob("*.json"))) == 0
    assert len(list(broker.leased.glob("*.json"))) == 0
    assert store.stats()["entries"] == 1

    # Exactly one terminal ledger record; stale wake-ups are ledgered as
    # discards, never as a second completion.
    from repro.runtime import JobJournal

    ops = [r["op"] for r in JobJournal.read(broker.ledger_path)]
    assert ops.count("done") == 1
    if not late_commit_first:
        assert ops.count("stale_discarded") >= 1

    # The surviving result is bit-identical to the fault-free reference.
    fetched = broker.fetch(job)
    assert fetched is not None and fetched.ok
    _assert_same_plan(reference, fetched)
