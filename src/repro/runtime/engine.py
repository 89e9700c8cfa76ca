"""Batch orchestration: result store → scheduler → telemetry.

This is the high-level entry the CLI and the evaluation layer share:

* :func:`grid_jobs` expands a cases × planners grid into :class:`PlanJob`
  specs (the same grid ``run_comparison`` used to loop over serially),
* a :class:`Scheduler` — the one dispatch knob — decides where a batch
  runs: :class:`LocalScheduler` in this process or on a local pool,
  optionally supervised; :class:`~repro.dist.BrokerScheduler` over a spool,
* :func:`iter_jobs` streams results in submission order, serving store hits
  instantly, persisting fresh ``ok`` results, and logging every outcome to
  telemetry; :func:`run_jobs` is the list-returning wrapper.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.events import PlanEvent, guarded_sink
from repro.model import OSPInstance
from repro.obs.tracing import span
from repro.runtime.jobs import JobResult, PlanJob, PlannerSpec, execute_job
from repro.runtime.pool import EventRelay, PlannerPool, inline_sink
from repro.runtime.store import ResultStore
from repro.runtime.supervision import JobJournal, LeasePolicy, _Supervisor
from repro.runtime.telemetry import Telemetry

__all__ = ["Scheduler", "LocalScheduler", "grid_jobs", "iter_jobs", "run_jobs"]


def _as_spec(value) -> PlannerSpec:
    if isinstance(value, PlannerSpec):
        return value
    if isinstance(value, str):
        return PlannerSpec(value)
    raise TypeError(
        "pooled execution needs picklable planner specs; got "
        f"{value!r} — pass a PlannerSpec (or registry name) instead of a factory"
    )


def grid_jobs(
    cases: Sequence[str] | Sequence[OSPInstance],
    planners: Mapping[str, PlannerSpec | str],
    scale: float | None = None,
    timeout: float | None = None,
) -> list[PlanJob]:
    """One job per (case, planner) cell, case-major, preserving mapping order."""
    jobs: list[PlanJob] = []
    for case in cases:
        for label, value in planners.items():
            spec = _as_spec(value)
            if isinstance(case, OSPInstance):
                jobs.append(PlanJob(spec=spec, instance=case, timeout=timeout, label=label))
            else:
                jobs.append(
                    PlanJob(spec=spec, case=case, scale=scale, timeout=timeout, label=label)
                )
    return jobs


class Scheduler:
    """Where a batch executes: the strategy interface behind ``run_jobs``.

    Implementations stream results in submission order from
    :meth:`iter_jobs`; :meth:`run_jobs` is the list-returning wrapper.  The
    per-batch data (store, telemetry, events) are call arguments, so one
    scheduler serves many batches.  :meth:`close` (also on context exit)
    releases owned resources and is idempotent.
    """

    def iter_jobs(
        self,
        jobs: Iterable[PlanJob],
        *,
        store: ResultStore | None = None,
        telemetry: Telemetry | None = None,
        on_event: Callable[[PlanEvent], None] | None = None,
    ) -> Iterator[JobResult]:
        raise NotImplementedError

    def run_jobs(self, jobs: Iterable[PlanJob], **kwargs) -> list[JobResult]:
        return list(self.iter_jobs(jobs, **kwargs))

    def close(self) -> None:
        pass

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LocalScheduler(Scheduler):
    """Run batches in this process or on a local :class:`PlannerPool`.

    ``pool`` hands in a caller-owned (typically warm) pool, reused as-is and
    not shut down (``max_workers`` is then ignored).  Without it each batch
    gets a private pool of at most ``max_workers`` processes; ``1`` runs
    jobs inline.

    ``supervisor`` runs each batch under the lease supervisor
    (:mod:`repro.runtime.supervision`), the only layer that runs a failed
    job again: re-queue on worker death or lease expiry, quarantine after
    ``max_attempts``, inline fallback when the pool keeps breaking.
    ``journal`` (a path or :class:`JobJournal`) records every lease
    transition, and ``resume=True`` replays it so only unfinished jobs run
    again; a journal implies the default :class:`LeasePolicy`.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        pool: PlannerPool | None = None,
        supervisor: LeasePolicy | None = None,
        journal: JobJournal | str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        if resume and journal is None:
            raise ValueError("resume=True needs journal= (the run's journal path)")
        if supervisor is None and journal is not None:
            supervisor = LeasePolicy()
        self.max_workers = max(1, int(max_workers))
        self.pool = pool
        self.supervisor = supervisor
        self.journal = journal
        self.resume = resume

    def iter_jobs(self, jobs, *, store=None, telemetry=None, on_event=None):
        jobs = list(jobs)
        if self.supervisor is None:
            yield from self._iter_pooled(jobs, store, telemetry, on_event)
            return
        journal = self.journal
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal, resume=self.resume)
        pool = self.pool if self.pool is not None else PlannerPool(self.max_workers)
        try:
            yield from _Supervisor(
                jobs,
                pool=pool,
                config=self.supervisor,
                store=store,
                telemetry=telemetry,
                journal=journal,
                resume=self.resume,
                on_event=on_event,
            ).run()
        finally:
            if pool is not self.pool:
                pool.shutdown(wait=True)

    def _iter_pooled(
        self,
        jobs: list[PlanJob],
        store: ResultStore | None,
        telemetry: Telemetry | None,
        on_event: Callable[[PlanEvent], None] | None,
    ) -> Iterator[JobResult]:
        """Store probe → dispatch → persist → telemetry, in submission order.

        An inline pool runs each miss in this process; otherwise every miss
        is submitted at once and collected in order, one ``dispatch`` span
        per job.  Fresh results are persisted before they are yielded, so a
        consumer that stops early still leaves a warm cache behind.
        """
        hits: dict[int, JobResult] = {}
        misses: list[tuple[int, PlanJob]] = []
        # The probe phase shows up as its own span so a mostly-cached batch
        # attributes its wall time to store reads instead of to dispatch.
        with span("store_probe", jobs=len(jobs)):
            for index, job in enumerate(jobs):
                cached = store.get(job) if store is not None else None
                if cached is not None:
                    hits[index] = cached
                else:
                    misses.append((index, job))

        pool = self.pool
        if pool is None:
            pool = PlannerPool(min(self.max_workers, max(1, len(misses))))
        # Inline, a raising on_event is warned about and dropped once per
        # batch, as the relay does for worker processes.
        sink = guarded_sink(on_event) if pool.inline else None
        relay: EventRelay | None = None
        futures = iter(())
        try:
            if misses and not pool.inline:
                if on_event is not None:
                    relay = EventRelay(on_event)
                futures = iter(pool.submit(
                    [job for _, job in misses],
                    event_queue=relay.queue if relay is not None else None,
                ))
            for index, job in enumerate(jobs):
                if index in hits:
                    result = hits[index]
                else:
                    if pool.inline:
                        result = execute_job(job, on_event=inline_sink(job, sink))
                        pool._note(result, "inline")
                    else:
                        with span("dispatch", jobs=1, job_ids=[job.job_id]):
                            result = pool.collect(job, next(futures))
                    if store is not None:
                        store.put(job, result)
                if telemetry is not None:
                    telemetry.record(result)
                yield result
        finally:
            if pool is not self.pool:
                pool.shutdown(wait=True)
            if relay is not None:
                relay.close()


def iter_jobs(
    jobs: Iterable[PlanJob],
    *,
    scheduler: Scheduler | None = None,
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
    on_event: Callable[[PlanEvent], None] | None = None,
) -> Iterator[JobResult]:
    """Stream results for ``jobs`` in submission order.

    ``scheduler`` decides where the batch runs; ``None`` means an inline
    :class:`LocalScheduler`.  ``on_event`` receives every
    :class:`~repro.events.PlanEvent` the running planners emit,
    label-stamped; with worker processes the stream crosses over an
    :class:`~repro.runtime.pool.EventRelay` and interleaves across jobs in
    arrival order.  No event crosses a broker spool.
    """
    scheduler = scheduler if scheduler is not None else LocalScheduler()
    yield from scheduler.iter_jobs(jobs, store=store, telemetry=telemetry, on_event=on_event)


def run_jobs(
    jobs: Iterable[PlanJob],
    *,
    scheduler: Scheduler | None = None,
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
    on_event: Callable[[PlanEvent], None] | None = None,
) -> list[JobResult]:
    """Run all jobs and return results in submission order (see iter_jobs)."""
    return list(
        iter_jobs(jobs, scheduler=scheduler, store=store, telemetry=telemetry, on_event=on_event)
    )
