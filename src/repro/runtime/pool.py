"""Process-pool execution of :class:`~repro.runtime.jobs.PlanJob` batches.

:class:`PlannerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the policies a batch planner needs:

* **pickled dispatch** — each :class:`~repro.runtime.jobs.PlanJob` crosses
  the process boundary as itself, inline instance included, with its
  content hashes computed once in the parent and carried in the pickle,
* **one future per job** — :meth:`~PlannerPool.submit` is the only way in
  and :meth:`~PlannerPool.collect` the only way out; batches, the serve
  daemon, the supervisor and the portfolio race all dispatch that way,
* **warm workers** — the executor persists across batches until
  :meth:`~PlannerPool.shutdown`; workers memoise named cases and their
  kernel caches per ``(case, scale)``, so repeated planners over the same
  case build it once,
* **per-job timeouts** — enforced *inside* the worker via ``SIGALRM`` (see
  :func:`repro.runtime.jobs.execute_job`), so a runaway planner is
  interrupted in place and its worker process is immediately reusable; the
  parent adds a grace margin on top as a belt-and-braces wait bound.  A
  worker that blows through even the grace margin (the alarm is deferred
  while native solver code runs) is reported as timed out and *terminated*
  at shutdown rather than joined, so shutdown stays bounded,
* **graceful shutdown** — the context manager cancels queued futures and
  joins every worker, leaving no orphaned processes behind.

``max_workers=1`` marks an inline pool: schedulers run its jobs in the
calling process (no worker at all).  That is the honest serial baseline the
throughput benchmark compares against, and it keeps tiny batches free of
process-spawn overhead.  :meth:`~PlannerPool.submit` still runs each job in
the pool's one worker process, which is how the serve daemon and a
portfolio race use a one-worker pool: there a timeout can fire and a cancel
can reach the job.

The pool only executes: each job runs once, a failed attempt comes back as a
failed result, and re-running it is the supervisor's call.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.events import PlanEvent
from repro.obs import metrics as obs_metrics
from repro.runtime import faults
from repro.runtime.jobs import JobResult, PlanJob, execute_job
from repro.runtime.relay import EventRelay

__all__ = ["PlannerPool", "EventRelay", "default_workers"]

# Extra seconds the parent waits beyond a job's own timeout before declaring
# it lost; the in-worker alarm should always fire first.
_WAIT_GRACE = 10.0

#: Grace window between the rungs of escalating cancellation (soft cancel →
#: SIGTERM → SIGKILL); see PlannerPool.cancel_running.
CANCEL_GRACE = 0.5


def default_workers(limit: int | None = None) -> int:
    """A sensible worker count: the CPU count, optionally capped."""
    count = os.cpu_count() or 1
    return max(1, min(count, limit) if limit else count)


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
    "pool_queue_depth", "Jobs submitted to worker processes but not yet collected"
)
_POOL_WORKERS = obs_metrics.declare_gauge(
    "pool_workers", "Worker processes of the most recent pool run (1 = inline)"
)
_POOL_JOB_SECONDS = obs_metrics.declare_histogram(
    "pool_job_seconds", "Wall seconds per job attempt as observed by the pool", ("mode",)
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


def _execute_in_worker(
    job: PlanJob,
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
            payload = {"job_id": job.job_id, "label": job.display_label, "worker_pid": pid}
            while True:
                try:
                    if not faults.heartbeat_stalled(job.job_id):
                        event_queue.put(PlanEvent(type="heartbeat", payload=payload).to_dict())
                except Exception:  # noqa: BLE001 — closed or dead relay: stop beating
                    return
                if stop.wait(heartbeat):
                    return

        beater = threading.Thread(target=_beat, name="job-heartbeat", daemon=True)
        beater.start()
        try:
            return _execute_in_worker(job, event_queue, event_types, collect_metrics)
        finally:
            stop.set()
            beater.join(timeout=1.0)
    if collect_metrics:
        # Worker-side half of the cross-process metrics pipeline: run the
        # whole execution under a fresh registry and ship its snapshot home
        # on the result; the parent folds it into its own registry at
        # collection time.
        with obs_metrics.collecting() as registry:
            result = _execute_in_worker(job, event_queue, event_types, False)
        result.metrics = registry.snapshot()
        return result
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
            labelled_event(event, label, worker_pid=pid, job_id=job.job_id).to_dict()
        )

    return execute_job(job, on_event=_relay)


def _worker_init() -> None:
    """Executor worker initializer: tie the worker's life to the parent's.

    A SIGKILLed parent can run no cleanup, and executor workers blocked on
    the call queue outlive it indefinitely (each worker holds a write end
    of the queue pipe, so nobody ever sees EOF).  Linux's parent-death
    signal makes the workers exit with the parent, so no orphaned process
    survives even a ``kill -9``.  Elsewhere this degrades to a no-op.

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


class PlannerPool:
    """Execute plan jobs across worker processes with timeouts.

    The pool is *warm*: its executor (and each worker's instance/kernel
    cache) survives across batches until :meth:`shutdown` — reuse one pool
    for a whole serving session instead of paying process spawn and
    interpreter import per batch.  :meth:`submit` may be called from
    several threads at once.
    """

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = max(1, int(max_workers))
        #: Executor breakages seen over this pool's lifetime (worker deaths).
        self.break_count = 0
        self._executor: ProcessPoolExecutor | None = None
        # Every submitted future not yet collected (or seen done by a later
        # submit) → the executor it went to.
        self._live: dict[Future, ProcessPoolExecutor] = {}
        # Guards the executor and _live across threads; reentrant because
        # reset_broken() shuts down under it.
        self._lock = threading.RLock()
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
        with self._lock:
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
        """Cancel queued jobs and join the workers (idempotent).

        If a worker is known to be stuck in native code past its timeout,
        teardown escalates (soft cancel → SIGTERM → SIGKILL, each with a
        grace window) instead of joining, so shutdown stays bounded without
        reaching straight for SIGKILL.
        """
        with self._lock:
            self._live.clear()
            if self._executor is not None:
                executor, self._executor = self._executor, None
                if self._stuck_worker:
                    self._stuck_worker = False
                    # _processes is a CPython implementation detail; if it
                    # moves, degrade to a plain (possibly slow) shutdown,
                    # never crash.
                    self._escalate_stop(executor)
                executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "PlannerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def submit(
        self, jobs: Sequence[PlanJob], event_queue=None, event_types=None, heartbeat=None
    ) -> list[Future]:
        """Submit jobs one future each; resolve each with :meth:`collect`.

        Each job is hashed here and then pickled whole, inline instance
        included: its ``job_id``, ``instance_hash`` and ``config_hash`` ride
        in the pickle, so workers never recompute them.

        ``event_queue`` (an :class:`EventRelay` queue) streams worker events
        back to the parent.  ``event_types`` (a tuple of
        :data:`~repro.events.EVENT_TYPES` names) restricts which events the
        workers relay — pass it when the consumer only reads a subset, to
        keep IPC off the planner hot paths.

        ``heartbeat`` (seconds) makes each worker emit periodic ``heartbeat``
        events for its running job onto ``event_queue`` — the supervisor's
        lease liveness channel.  Heartbeats bypass the ``event_types`` filter.
        """
        jobs = list(jobs)
        # Hash before the executor's feeder thread pickles the jobs: job_id
        # caches instance_hash and config_hash on the job as well.
        for job in jobs:
            _ = job.job_id
        collect_metrics = obs_metrics.installed() is not None
        with self._lock:
            executor = self._ensure_executor()
            futures = [
                executor.submit(
                    _execute_in_worker, job, event_queue, event_types, collect_metrics,
                    heartbeat,
                )
                for job in jobs
            ]
            # Forget the futures already done, then record this call's own:
            # collect() resets a broken executor only through a recorded
            # future, so these must stay recorded even if their executor
            # broke a moment ago.
            for future in [future for future in self._live if future.done()]:
                del self._live[future]
            for future in futures:
                self._live[future] = executor
            _POOL_QUEUE_DEPTH.set(len(self._live))
        _POOL_DISPATCHES.inc(len(futures))
        return futures

    def collect(self, job: PlanJob, future: Future) -> JobResult:
        """Resolve one submitted future into a :class:`JobResult`."""
        try:
            result = future.result(timeout=self._wait_bound(job))
        except Exception as exc:  # noqa: BLE001 — mapped onto a failed result
            result = self._failure(job, future, exc)
        with self._lock:
            self._live.pop(future, None)
        self._note(result, "pool")
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _wait_bound(self, job: PlanJob) -> float | None:
        return (job.timeout + _WAIT_GRACE) if job.timeout else None

    def _note(self, result: JobResult, mode: str) -> None:
        """Account one resolved job attempt, folding in its worker snapshot.

        This is the parent-side half of the cross-process metrics pipeline:
        the snapshot a worker attached in ``_execute_in_worker`` is popped
        off the result (it is transport, not payload) and merged into the
        installed registry.  No-op without one.  The pool's worker and
        queue-depth gauges are refreshed here too, on every dispatch path.
        """
        snapshot, result.metrics = result.metrics, None
        registry = obs_metrics.installed()
        if registry is not None and snapshot is not None:
            registry.merge(snapshot)
        _POOL_JOBS.inc(status=result.status, mode=mode)
        _POOL_JOB_SECONDS.observe(result.wall_seconds, mode=mode)
        _POOL_WORKERS.set(self.max_workers)
        _POOL_QUEUE_DEPTH.set(len(self._live))

    def _failure(self, job: PlanJob, future: Future, exc: Exception) -> JobResult:
        """The failed result of ``job`` whose future raised ``exc``."""
        if isinstance(exc, FutureTimeoutError):
            future.cancel()
            self.abandon_running()
            status, message = "timeout", "worker did not respond within the timeout"
        elif isinstance(exc, CancelledError):
            status, message = "error", "job was cancelled before it ran"
        elif isinstance(exc, BrokenProcessPool):
            # The pool is unusable: drop it so the next dispatch gets a fresh
            # one.  A dead worker breaks every future in flight, so only the
            # executor the future went to is reset, and only while it is
            # still the current one — never the executor that replaced it.
            with self._lock:
                executor = self._live.get(future)
                if executor is not None and executor is self._executor:
                    self.reset_broken()
            status, message = "error", f"worker pool broke: {exc}"
        else:  # unexpected submission failure
            status, message = "error", f"{type(exc).__name__}: {exc}"
        return JobResult(
            job_id=job.job_id,
            case=job.case_name,
            label=job.display_label,
            planner=job.spec.planner,
            status=status,
            error=message,
        )
