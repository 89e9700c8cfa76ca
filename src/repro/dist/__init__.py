"""Distributed execution tier: durable work-queue broker + fenced workers.

The pieces (see ``docs/DISTRIBUTED.md`` for the full design):

* :mod:`repro.dist.broker`    — the filesystem-backed durable broker: a
  spool directory per queue (``queued/ leased/ done/ quarantine/``),
  ``O_CREAT|O_EXCL`` claim files, monotonically increasing lease epochs
  as fencing tokens, mtime heartbeats, and an NDJSON ledger sharing the
  :class:`~repro.runtime.supervision.JobJournal` schema,
* :mod:`repro.dist.bells`     — same-host doorbells: an idle worker or a
  collecting driver waits on a datagram socket that spool changes ring,
  with its poll as the longest wait,
* :mod:`repro.dist.worker`    — the standalone worker agent behind
  ``eblow worker --broker DIR`` (claim → heartbeat → execute → fenced
  two-phase commit),
* :mod:`repro.dist.scheduler` — the :class:`Scheduler` interface that
  generalises dispatch: :class:`LocalScheduler` wraps today's pool /
  supervised path, :class:`BrokerScheduler` drives batches over a spool
  (and optionally owns the worker fleet), selected via
  ``run_jobs(..., scheduler=)`` / ``eblow batch --broker`` /
  ``eblow serve --broker``.
"""

from repro.dist.broker import (
    BROKER_VERSION,
    Broker,
    BrokerConfig,
    BrokerLease,
    job_from_payload,
    job_payload,
)
from repro.dist.scheduler import BrokerScheduler, LocalScheduler, Scheduler
from repro.dist.worker import WorkerAgent, run_worker

__all__ = [
    "BROKER_VERSION",
    "Broker",
    "BrokerConfig",
    "BrokerLease",
    "job_payload",
    "job_from_payload",
    "Scheduler",
    "LocalScheduler",
    "BrokerScheduler",
    "WorkerAgent",
    "run_worker",
]
