"""Batch planning runtime: jobs, process pools, portfolios, caching, telemetry.

This package turns the single-shot planners into a batch-serving engine:

* :mod:`repro.runtime.jobs`      — declarative :class:`PlanJob` specs with
  deterministic content-hash identities and the shared execution path,
* :mod:`repro.runtime.pool`      — :class:`PlannerPool`, a warm process-pool
  executor that ships each pickled job to a worker and runs it as one
  future (``submit`` / ``collect``) with per-job timeouts,
* :mod:`repro.runtime.relay`     — :class:`EventRelay`, the workers' plan
  events streamed to the parent over one Unix-socket connection per worker,
* :mod:`repro.runtime.engine`    — store-aware batch orchestration
  (:func:`grid_jobs` / :func:`run_jobs` / :func:`iter_jobs`) behind the
  one dispatch knob, a :class:`Scheduler` (:class:`LocalScheduler` here,
  :class:`~repro.dist.BrokerScheduler` over a spool),
* :mod:`repro.runtime.portfolio` — racing several planner configs on one
  instance and keeping the best plan,
* :mod:`repro.runtime.store`     — on-disk content-addressed result cache
  with per-entry integrity digests and corrupt-entry quarantine,
* :mod:`repro.runtime.telemetry` — JSONL run manifests,
* :mod:`repro.runtime.supervision` — lease-based fault tolerance: a JSONL
  write-ahead job journal, heartbeat-driven worker supervision with
  re-queue/backoff/quarantine, and crash-resumable batches, under the
  :class:`LeasePolicy` the broker spool shares,
* :mod:`repro.runtime.faults`    — the deterministic fault-injection harness
  the chaos tests drive (kill/stall/delay/raise/corrupt).
"""

from repro.runtime.engine import LocalScheduler, Scheduler, grid_jobs, iter_jobs, run_jobs
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.jobs import (
    JobCancelledError,
    JobResult,
    JobTimeoutError,
    PlanJob,
    PlannerSpec,
    execute_job,
)
from repro.runtime.pool import EventRelay, PlannerPool, default_workers
from repro.runtime.portfolio import PortfolioOutcome, run_portfolio
from repro.runtime.store import ResultStore, code_version, default_cache_dir
from repro.runtime.supervision import JobJournal, JobLease, LeasePolicy
from repro.runtime.telemetry import Telemetry, read_manifest, summarize_manifest

__all__ = [
    "PlanJob",
    "PlannerSpec",
    "JobResult",
    "JobTimeoutError",
    "JobCancelledError",
    "execute_job",
    "PlannerPool",
    "EventRelay",
    "default_workers",
    "Scheduler",
    "LocalScheduler",
    "grid_jobs",
    "iter_jobs",
    "run_jobs",
    "PortfolioOutcome",
    "run_portfolio",
    "ResultStore",
    "code_version",
    "default_cache_dir",
    "Telemetry",
    "read_manifest",
    "summarize_manifest",
    "JobJournal",
    "JobLease",
    "LeasePolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
]
