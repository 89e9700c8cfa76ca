"""Process-pool execution of :class:`~repro.runtime.jobs.PlanJob` batches.

:class:`PlannerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the policies a batch planner needs:

* **zero-copy dispatch** — jobs cross the process boundary as thin
  :class:`~repro.runtime.jobs.JobDescriptor` records (spec + content
  digests); inline instances are exported once into a shared-memory
  :class:`~repro.runtime.arena.InstanceArena` and attached by workers as
  read-only views, so a grid ships each instance's bulk data at most once
  instead of once per job,
* **chunked submission** — descriptors are submitted in chunks sized to the
  worker count (one IPC round-trip amortised over several jobs) while
  results still stream back in submission order,
* **warm workers** — the executor persists across :meth:`run` /
  :meth:`imap` calls until :meth:`shutdown`; workers memoise resolved
  instances and their kernel caches by digest, so repeated planners over
  the same case skip deserialization entirely.  Process-wide reuse is one
  :func:`shared_pool` call away,
* **per-job timeouts** — enforced *inside* the worker via ``SIGALRM`` (see
  :func:`repro.runtime.jobs.execute_job`), so a runaway planner is
  interrupted in place and its worker process is immediately reusable; the
  parent adds a grace margin on top as a belt-and-braces wait bound.  A
  worker that blows through even the grace margin (the alarm is deferred
  while native solver code runs) is reported as timed out and *terminated*
  at shutdown rather than joined, so shutdown stays bounded,
* **graceful shutdown** — the context manager cancels queued futures, joins
  every worker, and unlinks every arena segment, leaving no orphaned
  processes or ``/dev/shm`` entries behind.

``max_workers=1`` runs jobs inline in the calling process (no pool at all):
that is the honest serial baseline the throughput benchmark compares
against, and it keeps tiny batches free of process-spawn overhead.

The pool only executes: each job runs once, a failed attempt comes back as a
failed result, and re-running it is the supervisor's call.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Sequence

from repro.events import PlanEvent, guarded_sink
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime import faults
from repro.runtime.arena import InstanceArena
from repro.runtime.jobs import JobDescriptor, JobResult, PlanJob, execute_job
from repro.runtime.relay import EventRelay

__all__ = ["PlannerPool", "EventRelay", "default_workers", "shared_pool", "close_shared_pools"]

# Extra seconds the parent waits beyond a job's own timeout before declaring
# it lost; the in-worker alarm should always fire first.
_WAIT_GRACE = 10.0

#: Grace window between the rungs of escalating cancellation (soft cancel →
#: SIGTERM → SIGKILL); see PlannerPool.cancel_running.
CANCEL_GRACE = 0.5

# Target number of chunks per worker when no explicit chunksize is given:
# large enough to amortise IPC, small enough to keep ordered streaming and
# work stealing responsive.
_CHUNKS_PER_WORKER = 4
_MAX_CHUNKSIZE = 16


def default_workers(limit: int | None = None) -> int:
    """A sensible worker count: the CPU count, optionally capped."""
    count = os.cpu_count() or 1
    return max(1, min(count, limit) if limit else count)


def auto_chunksize(num_jobs: int, workers: int) -> int:
    """Chunk size used when the caller does not pin one."""
    if num_jobs <= 0 or workers <= 0:
        return 1
    per_stream = -(-num_jobs // (workers * _CHUNKS_PER_WORKER))  # ceil div
    return max(1, min(per_stream, _MAX_CHUNKSIZE))


#: Pool-level metrics (see docs/OBSERVABILITY.md).  Declared as pre-bound
#: instruments: every call is a no-op unless a registry is installed.
_POOL_JOBS = obs_metrics.declare_counter(
    "pool_jobs_total",
    "Job attempts resolved by the planner pool, by outcome",
    ("status", "mode"),
)
_POOL_DISPATCHES = obs_metrics.declare_counter(
    "pool_dispatches_total", "Futures submitted to worker processes"
)
_POOL_QUEUE_DEPTH = obs_metrics.declare_gauge(
    "pool_queue_depth", "Jobs submitted to the current batch but not yet resolved"
)
_POOL_WORKERS = obs_metrics.declare_gauge(
    "pool_workers", "Worker processes of the most recent pool run (1 = inline)"
)
_POOL_JOB_SECONDS = obs_metrics.declare_histogram(
    "pool_job_seconds", "Wall seconds per job attempt as observed by the pool", ("mode",)
)
_ARENA_SEGMENTS = obs_metrics.declare_gauge(
    "arena_segments", "Live shared-memory segments in the instance arena"
)
_POOL_BREAKS = obs_metrics.declare_counter(
    "pool_breaks_total",
    "Executor breakages (a worker process died with jobs in flight)",
)


def labelled_event(
    event: PlanEvent,
    label: str,
    worker_pid: int | None = None,
    job_id: str | None = None,
) -> PlanEvent:
    """The event with label / worker pid / job id stamped into its payload.

    Only missing keys are added (an event that already carries an explicit
    ``worker_pid`` — e.g. a relayed span — keeps its own), so the stamp is
    idempotent across the inline and relayed paths.
    """
    updates: dict[str, object] = {}
    if event.payload.get("label") != label:
        updates["label"] = label
    if worker_pid is not None and "worker_pid" not in event.payload:
        updates["worker_pid"] = worker_pid
    if job_id is not None and "job_id" not in event.payload:
        updates["job_id"] = job_id
    if not updates:
        return event
    return PlanEvent(
        type=event.type,
        seq=event.seq,
        elapsed=event.elapsed,
        payload={**event.payload, **updates},
    )


def inline_sink(
    job: PlanJob, on_event: Callable[[PlanEvent], None] | None
) -> Callable[[PlanEvent], None] | None:
    """``on_event`` for ``job`` run in this process, stamped like a relayed event."""
    if on_event is None:
        return None
    label = job.display_label
    pid = os.getpid()

    def sink(event: PlanEvent) -> None:
        on_event(labelled_event(event, label, worker_pid=pid, job_id=job.job_id))

    return sink


def _execute_descriptor(
    desc: JobDescriptor,
    event_queue=None,
    event_types=None,
    collect_metrics=False,
    heartbeat=None,
) -> JobResult:
    if heartbeat is not None and event_queue is not None:
        # Liveness beacon for the supervisor's lease table: a daemon thread
        # puts a ``heartbeat`` event straight onto the relay queue every
        # ``heartbeat`` seconds (first beat immediately, so the lease arms as
        # soon as the job is picked up).  It bypasses the ``event_types``
        # filter — the filter tunes the *planner* stream, while heartbeats
        # are the supervision control channel.  NOTE: the beat only proves
        # the process is scheduling Python threads; a worker wedged in a
        # native call that releases the GIL still beats (which is correct —
        # it is alive), one that holds the GIL stops beating and its lease
        # expires, which is exactly the wedged-worker signal.
        stop = threading.Event()
        pid = os.getpid()

        def _beat() -> None:
            payload = {
                "job_id": desc.job_id,
                "label": desc.label or desc.spec.planner,
                "worker_pid": pid,
            }
            while True:
                try:
                    if not faults.heartbeat_stalled(desc.job_id):
                        event_queue.put(PlanEvent(type="heartbeat", payload=payload).to_dict())
                except Exception:  # noqa: BLE001 — closed or dead relay: stop beating
                    return
                if stop.wait(heartbeat):
                    return

        beater = threading.Thread(target=_beat, name="job-heartbeat", daemon=True)
        beater.start()
        try:
            return _execute_descriptor(desc, event_queue, event_types, collect_metrics)
        finally:
            stop.set()
            beater.join(timeout=1.0)
    if collect_metrics:
        # Worker-side half of the cross-process metrics pipeline: run the
        # whole execution (descriptor rebuild and arena attach included)
        # under a fresh registry and ship its snapshot home on the result;
        # the parent folds it into its own registry at collection time.
        with obs_metrics.collecting() as registry:
            result = _execute_descriptor(desc, event_queue, event_types, False)
        result.metrics = registry.snapshot()
        return result
    try:
        job = desc.rebuild()
    except Exception as exc:  # noqa: BLE001 — e.g. arena segment gone after a
        # concurrent pool teardown.  Report it as THIS job's failure: an
        # exception escaping here would fail the whole chunk future and
        # throw away the completed results of every sibling job.
        return JobResult(
            job_id=desc.job_id,
            case=desc.case or "<inline>",
            label=desc.label or desc.spec.planner,
            planner=desc.spec.planner,
            status="error",
            error=f"descriptor rebuild failed: {type(exc).__name__}: {exc}",
            worker_pid=os.getpid(),
        )
    if event_queue is None:
        return execute_job(job)
    label = job.display_label
    pid = os.getpid()

    def _relay(event: PlanEvent) -> None:
        # A consumer that only needs some types (the portfolio's incumbent
        # bookkeeping) filters at the source, not in the parent.  A closed
        # or dead relay makes put() raise; the emitter then drops this
        # sink for the rest of the run instead of failing the job.
        if event_types is not None and event.type not in event_types:
            return
        event_queue.put(
            labelled_event(event, label, worker_pid=pid, job_id=desc.job_id).to_dict()
        )

    return execute_job(job, on_event=_relay)


def _worker_init() -> None:
    """Executor worker initializer: tie the worker's life to the parent's.

    A SIGKILLed parent can run no cleanup, and executor workers blocked on
    the call queue outlive it indefinitely (each worker holds a write end
    of the queue pipe, so nobody ever sees EOF).  Linux's parent-death
    signal makes the workers exit with the parent; once the last of them is
    gone the stdlib resource tracker loses its final pipe writer, wakes up,
    and unlinks every shared-memory segment the arena had registered — no
    orphaned processes or ``/dev/shm`` entries even on ``kill -9``.
    Elsewhere this degrades to a no-op.

    PDEATHSIG fires on the death of the *thread* that forked the worker,
    which for a lazily-spawned executor can be a short-lived caller thread
    while the owning process lives on.  The SIGTERM handler therefore
    exits only when the worker has actually been reparented (its original
    parent is gone) and ignores the signal otherwise — which is also why
    the stuck-worker shutdown path uses SIGKILL, not SIGTERM.

    Fork-started workers also inherit the parent's observability state at
    fork time: any installed :func:`repro.events.emitting` scopes (whose
    sinks — progress printers, telemetry files — belong to the parent and
    would double-deliver every worker event next to the relayed copy), the
    open-span stack (worker spans would parent to a span id in the parent
    process instead of rooting locally for job-id re-parenting), and the
    installed metrics registry (worker counts ship home as snapshots on the
    results, never through an inherited registry copy).  All three are
    cleared here, before the worker's first job; under spawn this is a
    no-op.
    """
    from repro.events import _STATE
    from repro.obs import metrics as obs_metrics
    from repro.obs.tracing import _STACK
    from repro.runtime import jobs as jobs_module

    _STATE.scopes.clear()
    _STACK.ids.clear()
    obs_metrics.uninstall()
    faults.mark_worker_process()
    try:
        import ctypes
        import signal as _signal

        parent = os.getppid()

        def _exit_if_orphaned(signum, frame):
            # SIGTERM exits the worker in exactly two situations: it was
            # reparented (the owner is gone), or a soft cancel (SIGUSR1, see
            # jobs.request_cancel) was requested and never absorbed by a job
            # — the second rung of escalating cancellation for a worker
            # wedged outside Python signal delivery that has just returned
            # to it.  A healthy worker ignores stray SIGTERMs.
            if os.getppid() != parent or jobs_module.cancel_pending():
                os._exit(0)

        _signal.signal(_signal.SIGTERM, _exit_if_orphaned)
        _signal.signal(_signal.SIGUSR1, jobs_module.request_cancel)
        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, _signal.SIGTERM)
    except Exception:  # noqa: BLE001 — non-Linux / restricted environments
        pass


def _pool_worker(
    desc: JobDescriptor,
    event_queue=None,
    event_types=None,
    collect_metrics=False,
    heartbeat=None,
) -> JobResult:
    # Module-level so it pickles under every multiprocessing start method.
    return _execute_descriptor(desc, event_queue, event_types, collect_metrics, heartbeat)


def _pool_worker_chunk(
    descs: Sequence[JobDescriptor],
    event_queue=None,
    event_types=None,
    collect_metrics=False,
) -> list[JobResult]:
    return [
        _execute_descriptor(desc, event_queue, event_types, collect_metrics)
        for desc in descs
    ]


class PlannerPool:
    """Execute plan jobs across worker processes with timeouts.

    The pool is *warm*: its executor (and each worker's instance/kernel
    cache) survives across :meth:`run` / :meth:`imap` calls until
    :meth:`shutdown` — reuse one pool for a whole serving session instead of
    paying process spawn and interpreter import per batch.

    ``chunksize`` pins how many job descriptors ride in one worker dispatch
    (default: sized from the batch and worker counts, see :meth:`imap`).
    """

    def __init__(
        self,
        max_workers: int = 1,
        chunksize: int | None = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.chunksize = chunksize if chunksize is None else max(1, int(chunksize))
        #: Executor breakages seen over this pool's lifetime (worker deaths).
        self.break_count = 0
        self._executor: ProcessPoolExecutor | None = None
        self._arena: InstanceArena | None = None
        # Set when a worker blew through its grace wait: its SIGALRM was
        # deferred by a long-running native call (e.g. a MILP solve), so a
        # plain join at shutdown could stall until that call returns.
        self._stuck_worker = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def inline(self) -> bool:
        """Whether jobs run in the calling process (``max_workers == 1``)."""
        return self.max_workers == 1

    @property
    def arena(self) -> InstanceArena:
        """The pool's shared-memory arena (created lazily)."""
        if self._arena is None:
            self._arena = InstanceArena()
        return self._arena

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_worker_init
            )
        return self._executor

    def abandon_running(self) -> None:
        """Mark running workers as abandoned: shutdown will terminate them.

        Used when the caller has given up on in-flight jobs (portfolio budget
        expiry, unresponsive worker) — joining them would un-bound shutdown.
        """
        self._stuck_worker = True

    def reset_broken(self) -> None:
        """Tear down a broken executor; the next dispatch respawns a fresh one.

        Accounts the breakage (``pool_breaks_total`` / :attr:`break_count`) so
        supervision can track pool health across resets.
        """
        self.break_count += 1
        _POOL_BREAKS.inc()
        self.shutdown(wait=False)

    def cancel_running(self) -> int:
        """Soft-cancel whatever the workers are running (``SIGUSR1``).

        A worker executing Python raises :class:`~repro.runtime.jobs.JobCancelledError`
        in its job, resolves the future as ``status="cancelled"``, and stays
        alive and reusable — the pool remains healthy, which is why this is
        safe on caller-owned warm pools (portfolio straggler cancellation).
        A worker wedged in native code ignores the signal; escalation to
        SIGTERM/SIGKILL is the supervisor's (or shutdown's) job, not this
        method's.  Returns the number of workers signalled.
        """
        executor = self._executor
        if executor is None:
            return 0
        processes = getattr(executor, "_processes", None) or {}
        signalled = 0
        for process in list(processes.values()):
            if not process.is_alive():
                continue
            try:
                os.kill(process.pid, signal.SIGUSR1)
                signalled += 1
            except Exception:  # noqa: BLE001 — racing a worker exit
                pass
        return signalled

    def _escalate_stop(self, executor: ProcessPoolExecutor) -> None:
        """Escalating teardown of abandoned workers: cancel → TERM → KILL.

        Each rung gets a :data:`CANCEL_GRACE` window: a worker that merely sits
        in cancellable Python (a long pure-Python loop) absorbs the soft
        cancel, resolves its future, and exits via the executor's sentinel;
        one that reaches signal delivery later dies on the SIGTERM it has
        armed (see ``_worker_init``); only a worker wedged in native code
        for both windows eats the SIGKILL — the old behaviour, now last
        resort instead of first.
        """
        processes = list((getattr(executor, "_processes", None) or {}).values())
        if not processes:
            return
        self.cancel_running()
        executor.shutdown(wait=False, cancel_futures=True)
        if self._await_exit(processes, CANCEL_GRACE):
            return
        for process in processes:
            if process.is_alive():
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001
                    pass
        if self._await_exit(processes, CANCEL_GRACE):
            return
        for process in processes:
            if process.is_alive():
                try:
                    process.kill()
                except Exception:  # noqa: BLE001
                    pass

    @staticmethod
    def _await_exit(processes, grace: float) -> bool:
        """Poll-wait up to ``grace`` seconds for every process to exit."""
        import time as _time

        deadline = _time.monotonic() + max(0.0, grace)
        while _time.monotonic() < deadline:
            if not any(process.is_alive() for process in processes):
                return True
            _time.sleep(0.02)
        return not any(process.is_alive() for process in processes)

    def shutdown(self, wait: bool = True) -> None:
        """Cancel queued jobs, join the workers, unlink the arena (idempotent).

        If a worker is known to be stuck in native code past its timeout,
        teardown escalates (soft cancel → SIGTERM → SIGKILL, each with a
        grace window) instead of joining, so shutdown stays bounded without
        reaching straight for SIGKILL.
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            if self._stuck_worker:
                self._stuck_worker = False
                # _processes is a CPython implementation detail; if it moves,
                # degrade to a plain (possibly slow) shutdown, never crash.
                self._escalate_stop(executor)
            executor.shutdown(wait=wait, cancel_futures=True)
        # Unlink after the workers are gone (their mappings stay valid
        # regardless — POSIX keeps unlinked segments alive while mapped).
        if self._arena is not None:
            arena, self._arena = self._arena, None
            arena.close()

    def close(self) -> None:
        """Alias for :meth:`shutdown` (matches the docs' lifecycle wording)."""
        self.shutdown(wait=True)

    def __enter__(self) -> "PlannerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[PlanJob]) -> list[JobResult]:
        """Run all jobs and return their results in submission order."""
        return list(self.imap(jobs))

    def describe(self, jobs: Sequence[PlanJob]) -> list[JobDescriptor]:
        """Thin descriptors for ``jobs``, exporting inline instances once."""
        arena = (
            self.arena if any(job.instance is not None for job in jobs) else None
        )
        return [job.describe(arena) for job in jobs]

    def trim_arena(self, keep: "set[str] | frozenset[str]" = frozenset()) -> int:
        """Bound the warm arena between batches (idempotent, see arena.trim).

        Callers that reuse this pool across batches (``imap`` does it
        automatically; :func:`~repro.runtime.portfolio.run_portfolio` calls
        it for caller-owned pools) pass the digests still in flight so a hot
        instance is never evicted under a running job.
        """
        if self._arena is None:
            return 0
        return self._arena.trim(keep=keep)

    def imap(
        self,
        jobs: Iterable[PlanJob],
        event_queue=None,
        on_event: Callable[[PlanEvent], None] | None = None,
    ) -> Iterator[JobResult]:
        """Yield results in submission order as jobs complete.

        Jobs are dispatched as descriptor chunks (the pool's ``chunksize``,
        else :func:`auto_chunksize`); results of a chunk are yielded as soon
        as the chunk (and everything before it) finishes.

        ``event_queue`` (an :class:`EventRelay` queue) streams worker events
        back to the parent; ``on_event`` is the in-process equivalent used on
        the inline path, receiving label-stamped events directly.  As on the
        relay, a raising ``on_event`` is warned about and dropped once for
        the whole batch, not once per job.
        """
        jobs = list(jobs)
        if not jobs:
            return
        _POOL_WORKERS.set(self.max_workers)
        if self.inline:
            on_event = guarded_sink(on_event)
            pending = len(jobs)
            _POOL_QUEUE_DEPTH.set(pending)
            try:
                for job in jobs:
                    result = execute_job(job, on_event=inline_sink(job, on_event))
                    self._note(result, "inline")
                    pending -= 1
                    _POOL_QUEUE_DEPTH.set(pending)
                    yield result
            finally:
                _POOL_QUEUE_DEPTH.set(0)
            return
        executor = self._ensure_executor()
        descriptors = self.describe(jobs)
        collect_metrics = obs_metrics.installed() is not None
        chunksize = self.chunksize
        if chunksize is None:
            # With per-job timeouts, dispatch one job per future: a chunk
            # can only be declared lost as a whole, so batching would let a
            # single wedged job (deferred SIGALRM in native code) take its
            # completed siblings down with it — and only after waiting the
            # *sum* of the chunk's bounds.  Callers that want chunking
            # anyway can pin chunksize explicitly.
            if any(job.timeout for job in jobs):
                chunksize = 1
            else:
                chunksize = auto_chunksize(len(jobs), self.max_workers)
        chunks: list[tuple[list[PlanJob], list[JobDescriptor]]] = [
            (jobs[i : i + chunksize], descriptors[i : i + chunksize])
            for i in range(0, len(jobs), chunksize)
        ]
        futures: list[Future] = [
            executor.submit(_pool_worker_chunk, descs, event_queue, None, collect_metrics)
            for _, descs in chunks
        ]
        _POOL_DISPATCHES.inc(len(futures))
        pending = len(jobs)
        _POOL_QUEUE_DEPTH.set(pending)
        try:
            for (chunk_jobs, _), future in zip(chunks, futures):
                with span("dispatch", jobs=len(chunk_jobs),
                          job_ids=[job.job_id for job in chunk_jobs]):
                    results = self._collect_chunk(chunk_jobs, future)
                pending -= len(chunk_jobs)
                _POOL_QUEUE_DEPTH.set(pending)
                yield from results
        finally:
            _POOL_QUEUE_DEPTH.set(0)
            # Between batches, bound the warm arena: evict the oldest
            # segments beyond capacity, keeping this batch's digests (a
            # serving pool over a stream of distinct instances must not
            # grow /dev/shm without bound).
            self.trim_arena(
                keep={d.instance_hash for _, descs in chunks for d in descs}
            )
            _ARENA_SEGMENTS.set(len(self._arena) if self._arena is not None else 0)

    def submit(
        self, jobs: Sequence[PlanJob], event_queue=None, event_types=None, heartbeat=None
    ) -> list[Future]:
        """Low-level: submit jobs one future each (portfolio racing, leases).

        ``event_types`` (a tuple of :data:`~repro.events.EVENT_TYPES` names)
        restricts which events the workers relay — pass it when the consumer
        only reads a subset, to keep IPC off the planner hot paths.

        ``heartbeat`` (seconds) makes each worker emit periodic ``heartbeat``
        events for its running job onto ``event_queue`` — the supervisor's
        lease liveness channel.  Heartbeats bypass the ``event_types`` filter.
        """
        executor = self._ensure_executor()
        collect_metrics = obs_metrics.installed() is not None
        futures = [
            executor.submit(
                _pool_worker, desc, event_queue, event_types, collect_metrics, heartbeat
            )
            for desc in self.describe(list(jobs))
        ]
        _POOL_DISPATCHES.inc(len(futures))
        _POOL_WORKERS.set(self.max_workers)
        return futures

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _wait_bound(self, job: PlanJob) -> float | None:
        return (job.timeout + _WAIT_GRACE) if job.timeout else None

    def _chunk_wait_bound(self, jobs: Sequence[PlanJob]) -> float | None:
        # Chunk jobs run sequentially in one worker, so the parent-side
        # bound is the sum of the per-job bounds — and only exists when
        # every job is itself bounded.
        bounds = [self._wait_bound(job) for job in jobs]
        if any(bound is None for bound in bounds):
            return None
        return sum(bounds)

    @staticmethod
    def _note(result: JobResult, mode: str) -> None:
        """Account one resolved job attempt, folding in its worker snapshot.

        This is the parent-side half of the cross-process metrics pipeline:
        the snapshot a worker attached in ``_execute_descriptor`` is popped
        off the result (it is transport, not payload) and merged into the
        installed registry.  No-op without one.
        """
        snapshot, result.metrics = result.metrics, None
        registry = obs_metrics.installed()
        if registry is not None and snapshot is not None:
            registry.merge(snapshot)
        _POOL_JOBS.inc(status=result.status, mode=mode)
        _POOL_JOB_SECONDS.observe(result.wall_seconds, mode=mode)

    def collect(self, job: PlanJob, future: Future) -> JobResult:
        """Resolve one single-job future into a :class:`JobResult`."""
        try:
            result = future.result(timeout=self._wait_bound(job))
        except Exception as exc:  # noqa: BLE001 — mapped onto a failed result
            [result] = self._failures([job], future, exc)
        self._note(result, "pool")
        return result

    def _collect_chunk(
        self, jobs: Sequence[PlanJob], future: Future
    ) -> list[JobResult]:
        """Resolve one chunk future into its jobs' results, in order."""
        try:
            results = list(future.result(timeout=self._chunk_wait_bound(jobs)))
        except Exception as exc:  # noqa: BLE001 — mapped onto failed results
            results = self._failures(jobs, future, exc)
        for result in results:
            self._note(result, "pool")
        return results

    def _failures(
        self, jobs: Sequence[PlanJob], future: Future, exc: Exception
    ) -> list[JobResult]:
        """The failed results of ``jobs`` whose future raised ``exc``."""
        if isinstance(exc, FutureTimeoutError):
            future.cancel()
            self.abandon_running()
            status, message = "timeout", "worker did not respond within the timeout"
        elif isinstance(exc, CancelledError):
            status, message = "error", "job was cancelled before it ran"
        elif isinstance(exc, BrokenProcessPool):
            # The pool is unusable: drop it so the next dispatch gets a fresh one.
            self.reset_broken()
            status, message = "error", f"worker pool broke: {exc}"
        else:  # unexpected submission failure
            status, message = "error", f"{type(exc).__name__}: {exc}"
        return [self._failed(job, status, message) for job in jobs]

    @staticmethod
    def _failed(job: PlanJob, status: str, message: str) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            case=job.case_name,
            label=job.display_label,
            planner=job.spec.planner,
            status=status,
            error=message,
        )


# --------------------------------------------------------------------------- #
# Process-wide warm pools
# --------------------------------------------------------------------------- #

_SHARED_POOLS: dict[int, PlannerPool] = {}


def shared_pool(max_workers: int) -> PlannerPool:
    """A process-wide warm :class:`PlannerPool` (one per worker count).

    The returned pool is owned by the process: callers must *not* close it
    (use it without ``with``); every pool is shut down at interpreter exit
    or explicitly via :func:`close_shared_pools`.  Handing the same pool to
    successive batches (``LocalScheduler(pool=...)``) and
    :func:`~repro.runtime.portfolio.run_portfolio` calls keeps workers — and
    their per-digest instance caches — warm across batches.
    """
    key = max(1, int(max_workers))
    pool = _SHARED_POOLS.get(key)
    if pool is None:
        pool = PlannerPool(max_workers=key)
        _SHARED_POOLS[key] = pool
    return pool


def close_shared_pools() -> None:
    """Shut down every process-wide pool (idempotent; also runs atexit)."""
    for key in list(_SHARED_POOLS):
        _SHARED_POOLS.pop(key).shutdown(wait=True)


atexit.register(close_shared_pools)
