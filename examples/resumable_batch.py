"""Crash-resumable, fault-tolerant batch execution.

Demonstrates the supervision layer of `repro.runtime` end to end:

1. run a supervised batch with a durable job-lease journal and a result
   store, but *crash* the driver halfway through (simulated by stopping the
   result iterator early);
2. resume from the journal — finished jobs are served from the store with
   identical job ids and bit-identical plans, only unfinished jobs re-run;
3. inject a worker-killing fault and watch the supervisor detect the death,
   re-queue the leased jobs with backoff, and still complete the batch with
   plans identical to a fault-free run.

Run with::

    PYTHONPATH=src python examples/resumable_batch.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.runtime import (
    FaultPlan,
    FaultSpec,
    JobJournal,
    LeasePolicy,
    LocalScheduler,
    PlannerSpec,
    ResultStore,
    grid_jobs,
    iter_jobs,
    run_jobs,
)
from repro.runtime import faults


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="eblow-resume-"))
    store = ResultStore(workdir / "cache")
    journal_path = workdir / "run.journal.jsonl"

    planners = {
        "greedy": PlannerSpec("greedy-1d"),
        "e-blow": PlannerSpec("eblow-1d"),
    }
    jobs = grid_jobs(["1T-1", "1T-2", "1T-3"], planners, scale=1.0)

    # --- 1. a batch that "crashes" halfway through -----------------------
    print(f"batch of {len(jobs)} jobs; driver dies after 2 results")
    supervised = LocalScheduler(max_workers=2, journal=journal_path)
    stream = iter_jobs(jobs, scheduler=supervised, store=store)
    for _, result in zip(range(2), stream):
        print(f"  {result.case:>5} {result.label:<7} T={result.writing_time:7.0f}")
    stream.close()  # simulate the crash: the journal + store survive

    state = JobJournal.replay(journal_path)
    done = sum(1 for entry in state.values() if entry["state"] == "done")
    print(f"journal after crash: {done} done, {len(state) - done} pending")

    # --- 2. resume: only unfinished jobs re-execute ----------------------
    resuming = LocalScheduler(max_workers=2, journal=journal_path, resume=True)
    resumed = run_jobs(jobs, scheduler=resuming, store=store)
    hits = sum(1 for r in resumed if r.cache_hit)
    print(f"resumed run: {len(resumed)} results, {hits} served from the store")
    assert all(r.ok for r in resumed)

    # --- 3. chaos: SIGKILL a worker mid-job, recover, same plans ---------
    print("injecting a one-shot worker kill into a fresh batch")
    scratch = workdir / "faults"
    scratch.mkdir()
    plan = FaultPlan(
        specs=(FaultSpec(kind="kill_worker", match="1T-2", once=True, seconds=0.1),),
        scratch=str(scratch),
    )
    config = LeasePolicy(heartbeat_interval=0.1, backoff_base=0.05)
    with faults.injecting(plan):
        chaotic = run_jobs(
            jobs, scheduler=LocalScheduler(max_workers=2, supervisor=config)
        )
    for clean, survived in zip(resumed, chaotic):
        assert survived.ok
        assert clean.job_id == survived.job_id
        assert clean.writing_time == survived.writing_time
    retried = [r for r in chaotic if r.attempts > 1]
    print(
        f"worker killed and recovered: {len(retried)} job(s) took a second "
        f"attempt, all {len(chaotic)} plans identical to the fault-free run"
    )


if __name__ == "__main__":
    main()
