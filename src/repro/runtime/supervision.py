"""Lease-based supervision of batch execution: journal, heartbeats, recovery.

:mod:`repro.runtime.engine` gives a batch exactly-once *caching* (content
job ids + the result store) but no fault tolerance: a ``kill -9``'d worker
silently fails its in-flight jobs, a crashed parent restarts the batch from
zero, and a wedged worker stalls the whole run.  This module wraps
:class:`~repro.runtime.pool.PlannerPool` dispatch in a supervisor that makes
batches survive all three:

* **durable job leases** — every job's lifecycle (``queued`` → ``leased`` →
  ``done`` / ``requeued`` / ``quarantined``) is appended to a JSONL
  write-ahead journal (:class:`JobJournal`, schema v1, kept next to the
  telemetry manifest) *before* the outcome is acted on;
* **heartbeat liveness** — workers piggyback periodic ``heartbeat`` events
  on the existing :class:`~repro.runtime.pool.EventRelay`; a lease's
  deadline renews on every event from its job, so a silent worker is
  detected by lease expiry, not by waiting out the job timeout;
* **recovery** — on worker death (``BrokenProcessPool``) or lease expiry the
  job is re-queued under its *original* ``job_id`` with jittered exponential
  backoff; a job that keeps failing is quarantined as poison after
  ``max_attempts``; lease expiry first escalates against the owner pid
  (soft cancel → ``SIGTERM`` → ``SIGKILL``, one grace window per rung);
* **graceful degradation** — after ``UNHEALTHY_AFTER`` consecutive pool
  breakages without progress the pool is abandoned and the remaining jobs
  run inline in the parent instead of erroring the batch;
* **resume** — a :class:`~repro.runtime.engine.LocalScheduler` given a
  journal and ``resume=True`` replays the journal and the
  :class:`~repro.runtime.store.ResultStore`: finished jobs are served from
  the store (bit-identical plans, identical job ids), quarantined jobs are
  reported without re-running, and only genuinely unfinished jobs execute
  again.

The lease policy (:class:`LeasePolicy`: attempts, heartbeats, lease timeout
and backoff) is shared with the broker spool in :mod:`repro.dist.broker`,
and :meth:`LeasePolicy.requeue_delay` is the one place that decides between
re-queueing a failed attempt and quarantining its job.

Determinism note: planning itself stays bit-identical under supervision —
a re-queued attempt re-runs the same pure job, and the backoff jitter comes
from a dedicated seeded RNG, never from the planners' random streams.  The
chaos suite (``tests/runtime/test_chaos.py``) asserts exactly that, driven
by :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ValidationError
from repro.events import PlanEvent, guarded_sink
from repro.io.serialization import canonical_json
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime.jobs import JobResult, PlanJob, execute_job
from repro.runtime.pool import CANCEL_GRACE, EventRelay, PlannerPool, inline_sink
from repro.runtime.store import ResultStore
from repro.runtime.telemetry import Telemetry

__all__ = [
    "JOURNAL_VERSION",
    "JobJournal",
    "JobLease",
    "LeasePolicy",
]

#: Journal record schema version (the ``"v"`` field of every record).
JOURNAL_VERSION = 1

#: Seed of the backoff-jitter RNG, so a replayed batch schedules identically.
BACKOFF_SEED = 0

#: Consecutive pool breakages without progress before the supervisor gives
#: up on the pool and runs the remaining jobs inline.
UNHEALTHY_AFTER = 3

_LEASE_OPS = obs_metrics.declare_counter(
    "supervisor_leases_total", "Lease lifecycle transitions by operation", ("op",)
)
_REQUEUES = obs_metrics.declare_counter(
    "supervisor_requeues_total", "Jobs re-queued by the supervisor, by reason", ("reason",)
)
_WORKER_DEATHS = obs_metrics.declare_counter(
    "worker_deaths_total", "Worker processes lost with leased jobs in flight"
)
_LEASE_EXPIRIES = obs_metrics.declare_counter(
    "supervisor_lease_expiries_total", "Leases that expired without a heartbeat"
)
_QUARANTINED = obs_metrics.declare_counter(
    "supervisor_quarantined_total", "Poison jobs quarantined after max_attempts"
)
_FALLBACKS = obs_metrics.declare_counter(
    "supervisor_inline_fallbacks_total",
    "Jobs executed inline after the pool was marked unhealthy",
)
_JOURNAL_WRITE_ERRORS = obs_metrics.declare_counter(
    "journal_write_errors_total",
    "Journal/ledger appends that failed and flipped degraded mode",
)


@dataclass(frozen=True)
class LeasePolicy:
    """How a leased job is watched, retried and finally quarantined.

    The in-process supervisor runs on it directly, and the broker spool's
    :class:`~repro.dist.broker.BrokerConfig` extends it.  The defaults suit
    real batches (sub-second planner runs up to multi-second LP solves); the
    chaos tests shrink ``heartbeat_interval`` / ``lease_timeout`` to keep
    fault turnaround fast.  ``lease_timeout`` must comfortably exceed the
    longest stretch a *healthy* planner can hold the GIL in native code
    (heartbeats come from a worker thread), or busy workers are treated as
    wedged.
    """

    #: Attempts per job before it is quarantined as poison.
    max_attempts: int = 3
    #: Worker heartbeat period.
    heartbeat_interval: float = 0.25
    #: Seconds a lease may go without a heartbeat before it expires.
    lease_timeout: float = 15.0
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.lease_timeout <= 0 or self.heartbeat_interval <= 0:
            raise ValidationError("lease_timeout and heartbeat_interval must be > 0")

    def requeue_delay(self, attempt: int, rng: random.Random | None = None) -> float | None:
        """Seconds to wait before attempt ``attempt + 1``, or ``None`` to quarantine.

        ``attempt`` counts the attempts already spent; once it reaches
        ``max_attempts`` the job is poison.  Otherwise the delay doubles per
        spent attempt from ``backoff_base`` up to ``backoff_cap``, stretched
        by up to ``backoff_jitter`` (a fraction) drawn from ``rng`` — no
        jitter, and no draw, without one.
        """
        if attempt >= self.max_attempts:
            return None
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        if rng is None:
            return base
        return base * (1.0 + max(0.0, self.backoff_jitter) * rng.random())


@dataclass
class JobLease:
    """Supervisor-side state of one job's execution lifecycle."""

    job: PlanJob
    state: str = "queued"  # queued | leased | done | quarantined
    attempt: int = 0
    owner_pid: int | None = None
    #: monotonic deadline after which the lease is expired (armed by the
    #: first heartbeat/event from the worker, renewed by every later one).
    deadline: float | None = None
    #: monotonic time before which a queued lease must not be re-dispatched.
    retry_at: float = 0.0
    started: bool = False
    expired: bool = False
    #: escalation rung already fired against the owner (0 = none,
    #: 1 = soft cancel, 2 = SIGTERM, 3 = SIGKILL).
    escalation: int = 0
    next_escalation_at: float = 0.0
    future: Future | None = None
    result: JobResult | None = None
    last_error: str | None = None

    def arm(self, state: str, future: Future | None = None) -> None:
        """Enter ``state`` with the liveness bookkeeping of a fresh attempt."""
        self.state = state
        self.future = future
        self.started = False
        self.expired = False
        self.owner_pid = None
        self.deadline = None
        self.escalation = 0


class JobJournal:
    """Append-only JSONL write-ahead journal of lease transitions.

    One record per transition, canonical-JSON encoded::

        {"record": "lease", "v": 1, "op": "...", "ts": <unix>, "job_id": ..., ...}

    ``op`` is one of ``queued`` / ``leased`` / ``done`` / ``requeued`` /
    ``lease_expired`` / ``quarantined`` / ``fallback``.  Records are written
    before their outcome is acted on and flushed per line (open/append/close,
    the same crash posture as :class:`~repro.runtime.telemetry.Telemetry`),
    so after a crash the journal's replayed state is at most one in-flight
    job behind reality — and that job simply re-runs under its content
    ``job_id``.  A torn final line (crash mid-write) is tolerated on replay.

    ``attach=True`` opens the journal as a *shared ledger*: never truncated,
    never replayed up front, and mirrored nowhere in memory (:attr:`records`
    stays empty) — the mode the broker spool ledgers use, where many
    long-lived processes append concurrently (each record is one short
    ``O_APPEND`` write, which POSIX keeps un-interleaved).

    A journal whose directory stops accepting writes mid-batch (``ENOSPC``,
    permissions yanked, path replaced) must not crash the supervisor loop —
    losing the batch over lost *bookkeeping* would invert the module's
    purpose.  The first failed append raises a :class:`RuntimeWarning` with
    the cause, flips :attr:`degraded`, and bumps
    ``journal_write_errors_total``; outside attach mode, appends keep
    landing on the in-memory :attr:`records` mirror so this run stays
    internally consistent, but a later ``resume`` will not see ops past the
    failure point.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False,
                 attach: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: job_id → replayed state (see :meth:`replay`); empty on fresh runs.
        self.prior: dict[str, dict] = {}
        #: True once an append failed; later appends are memory-only.
        self.degraded = False
        #: In-memory mirror of every record appended by *this* process
        #: (none in attach mode).
        self.records: list[dict] = []
        self._mirror = not attach
        if attach:
            pass  # shared ledger: leave whatever is on disk untouched
        elif resume:
            if self.path.exists():
                self.prior = self.replay(self.path)
        else:
            self.path.write_text("", encoding="utf-8")

    def append(self, op: str, job_id: str, **fields) -> None:
        record: dict = {
            "record": "lease",
            "v": JOURNAL_VERSION,
            "op": op,
            "ts": round(time.time(), 6),
            "job_id": job_id,
        }
        record.update(fields)
        if self._mirror:
            self.records.append(record)
        if self.degraded:
            return
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(canonical_json(record) + "\n")
        except OSError as exc:
            self.degraded = True
            _JOURNAL_WRITE_ERRORS.inc()
            import warnings

            warnings.warn(
                f"job journal {self.path} is no longer writable "
                f"({type(exc).__name__}: {exc}); continuing with the "
                "in-memory ledger only — this run is unaffected, but a later "
                "resume will not see operations after this point",
                RuntimeWarning,
                stacklevel=2,
            )

    @staticmethod
    def read(path: str | os.PathLike) -> list[dict]:
        """All parseable records of ``path`` (a torn final line is dropped)."""
        import json

        records: list[dict] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    item = json.loads(line)
                except ValueError:
                    continue  # torn write from a crashed run
                if isinstance(item, dict):
                    records.append(item)
        return records

    @classmethod
    def replay(cls, path: str | os.PathLike) -> dict[str, dict]:
        """Fold the journal into per-job final state.

        Returns ``job_id → {"state": pending|done|quarantined, "attempts": n,
        "status": ..., "error": ..., ...}`` — exactly what resume needs: done
        jobs are served from the store, quarantined jobs are reported without
        re-running, pending jobs re-execute with their attempt count intact.
        """
        state: dict[str, dict] = {}
        for record in cls.read(path):
            if record.get("record") != "lease":
                continue
            job_id = record.get("job_id")
            op = record.get("op")
            if not isinstance(job_id, str) or not isinstance(op, str):
                continue
            entry = state.setdefault(job_id, {"state": "pending", "attempts": 0})
            for key in ("case", "label", "planner", "status", "error", "reason"):
                if key in record:
                    entry[key] = record[key]
            if "attempt" in record:
                try:
                    entry["attempts"] = max(entry["attempts"], int(record["attempt"]))
                except (TypeError, ValueError):
                    pass
            if op in ("queued", "leased", "requeued", "lease_expired", "fallback"):
                entry["state"] = "pending"
            elif op == "done":
                entry["state"] = "done"
            elif op == "quarantined":
                entry["state"] = "quarantined"
        return state


class _Supervisor:
    """One supervised batch run (see :class:`~repro.runtime.engine.LocalScheduler`)."""

    def __init__(
        self,
        jobs: list[PlanJob],
        pool: PlannerPool,
        config: LeasePolicy,
        store: ResultStore | None,
        telemetry: Telemetry | None,
        journal: JobJournal | None,
        resume: bool,
        on_event: Callable[[PlanEvent], None] | None,
    ) -> None:
        self.pool = pool
        self.config = config
        self.store = store
        self.telemetry = telemetry
        self.journal = journal
        self.resume = resume
        self._callback = guarded_sink(on_event)
        self._rng = random.Random(BACKOFF_SEED)
        self._lock = threading.Lock()
        self.leases = [JobLease(job=job) for job in jobs]
        self._by_job_id: dict[str, list[JobLease]] = {}
        for lease in self.leases:
            self._by_job_id.setdefault(lease.job.job_id, []).append(lease)
        self._emit_index = 0
        self._breaks_in_a_row = 0
        self._degraded = False

    # ------------------------------------------------------------------ #
    # Journal / bookkeeping helpers
    # ------------------------------------------------------------------ #
    def _note_op(self, op: str, lease: JobLease, **fields) -> None:
        _LEASE_OPS.inc(op=op)
        if self.journal is not None:
            self.journal.append(op, lease.job.job_id, **fields)

    def _complete(self, lease: JobLease, result: JobResult, cache_hit: bool = False) -> None:
        if not cache_hit:
            result.attempts = lease.attempt
            result.extra["attempt"] = lease.attempt
            if self.store is not None:
                self.store.put(lease.job, result)
        lease.state = "done"
        lease.future = None
        lease.result = result
        self._breaks_in_a_row = 0
        self._note_op(
            "done",
            lease,
            status=result.status,
            attempt=result.attempts,
            cache_hit=cache_hit,
        )
        if self.telemetry is not None:
            self.telemetry.record(result)

    def _quarantine(self, lease: JobLease, reason: str) -> None:
        _QUARANTINED.inc()
        self._note_op(
            "quarantined", lease, reason=reason, error=lease.last_error, attempt=lease.attempt
        )
        self._settle_quarantined(lease, quarantine_reason=reason)

    def _settle_quarantined(self, lease: JobLease, **extra) -> None:
        """Finish ``lease`` as poison: its result, its state, its telemetry record."""
        job = lease.job
        lease.result = JobResult(
            job_id=job.job_id,
            case=job.case_name,
            label=job.display_label,
            planner=job.spec.planner,
            status="quarantined",
            error=lease.last_error,
            attempts=lease.attempt,
            extra={"attempt": lease.attempt, **extra},
        )
        lease.state = "quarantined"
        lease.future = None
        if self.telemetry is not None:
            self.telemetry.record(lease.result)

    def _requeue(self, lease: JobLease, reason: str, count_attempt: bool = True) -> None:
        """Put a lease back in the queue (or quarantine it) after a failure."""
        _REQUEUES.inc(reason=reason)
        if not count_attempt:
            # The attempt never really ran (pool reset cancelled it while
            # queued): give it back without burning an attempt, with just
            # enough delay for the fresh executor to come up.
            lease.attempt = max(0, lease.attempt - 1)
            delay = self.config.backoff_base
        else:
            delay = self.config.requeue_delay(lease.attempt, self._rng)
            if delay is None:
                self._quarantine(lease, reason)
                return
        with self._lock:
            lease.arm("queued")
        lease.retry_at = time.monotonic() + delay
        self._note_op(
            "requeued", lease, reason=reason, attempt=lease.attempt, retry_in=round(delay, 4)
        )

    # ------------------------------------------------------------------ #
    # Event observation (relay thread)
    # ------------------------------------------------------------------ #
    def _observe(self, event: PlanEvent) -> None:
        job_id = event.payload.get("job_id")
        if isinstance(job_id, str):
            now = time.monotonic()
            with self._lock:
                for lease in self._by_job_id.get(job_id, ()):
                    if lease.state != "leased":
                        continue
                    pid = event.payload.get("worker_pid")
                    if isinstance(pid, int) and pid > 0:
                        lease.owner_pid = pid
                    lease.started = True
                    lease.deadline = now + self.config.lease_timeout
        # Heartbeats are the supervision control channel, not planner
        # progress — they are consumed here and not forwarded.
        if self._callback is not None and event.type != "heartbeat":
            self._callback(event)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        """Resolve resume state and store hits; journal the rest as queued."""
        prior = self.journal.prior if (self.journal is not None and self.resume) else {}
        with span("store_probe", jobs=len(self.leases)):
            for lease in self.leases:
                job = lease.job
                info = prior.get(job.job_id)
                if info:
                    lease.attempt = max(lease.attempt, int(info.get("attempts", 0)))
                if info and info.get("state") == "quarantined":
                    # Poison stays poisoned across resumes: report it from the
                    # journal instead of re-running it (clear the journal to
                    # retry).  Not re-journaled — the terminal record exists.
                    lease.last_error = info.get("error")
                    self._settle_quarantined(lease, resumed=True)
                    continue
                cached = self.store.get(job) if self.store is not None else None
                if cached is not None:
                    self._complete(lease, cached, cache_hit=True)
                    continue
                self._note_op(
                    "queued",
                    lease,
                    case=job.case_name,
                    label=job.display_label,
                    planner=job.spec.planner,
                    attempt=lease.attempt,
                )

    def run(self) -> Iterator[JobResult]:
        with span("supervised_batch", jobs=len(self.leases)):
            self._prepare()
            yield from self._emit_ready()
            if self._emit_index < len(self.leases):
                if self.pool.inline:
                    yield from self._run_inline(degraded=False)
                else:
                    yield from self._run_pooled()

    def _emit_ready(self) -> Iterator[JobResult]:
        """Yield the contiguous prefix of finished results (submission order)."""
        while self._emit_index < len(self.leases):
            lease = self.leases[self._emit_index]
            if lease.state not in ("done", "quarantined"):
                return
            self._emit_index += 1
            yield lease.result

    # ------------------------------------------------------------------ #
    # Inline execution (``max_workers == 1`` or degraded pool)
    # ------------------------------------------------------------------ #
    def _run_inline(self, degraded: bool) -> Iterator[JobResult]:
        for lease in self.leases:
            if lease.state not in ("done", "quarantined"):
                if degraded:
                    _FALLBACKS.inc()
                    self._note_op("fallback", lease, attempt=lease.attempt)
                self._run_inline_lease(lease)
            yield from self._emit_ready()

    def _run_inline_lease(self, lease: JobLease) -> None:
        sink = inline_sink(lease.job, self._callback)
        while lease.state == "queued":
            delay = lease.retry_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lease.attempt += 1
            self._note_op("leased", lease, attempt=lease.attempt, pid=os.getpid())
            self._settle(lease, execute_job(lease.job, on_event=sink))

    # ------------------------------------------------------------------ #
    # Pooled execution
    # ------------------------------------------------------------------ #
    def _run_pooled(self) -> Iterator[JobResult]:
        relay = EventRelay(self._observe)
        try:
            while True:
                yield from self._emit_ready()
                pending = [
                    lease for lease in self.leases if lease.state in ("queued", "leased")
                ]
                if not pending:
                    break
                if self._degraded:
                    yield from self._run_inline(degraded=True)
                    break
                self._dispatch_eligible(relay)
                self._reap()
                self._check_leases()
            yield from self._emit_ready()
        finally:
            with self._lock:
                inflight = any(lease.state == "leased" for lease in self.leases)
            if inflight:
                # Abandoned mid-run (driver crash, early generator close):
                # stop the workers *before* the relay closes, or their
                # event/heartbeat puts would fail against it and each
                # worker would warn as it drops its sink.  The journal
                # already holds the resume state; the next dispatch
                # respawns the executor.
                self.pool.abandon_running()
                self.pool.shutdown(wait=True)
            relay.close()

    def _dispatch_eligible(self, relay: EventRelay) -> None:
        now = time.monotonic()
        for lease in self.leases:
            if lease.state != "queued" or lease.retry_at > now:
                continue
            lease.attempt += 1
            try:
                [future] = self.pool.submit(
                    [lease.job],
                    event_queue=relay.queue,
                    # Without a consumer callback, only the lease-arming
                    # events cross the relay (heartbeats bypass the filter).
                    event_types=None if self._callback is not None else ("started", "finished"),
                    heartbeat=self.config.heartbeat_interval,
                )
            except Exception:  # noqa: BLE001 — broken/unspawnable executor
                lease.attempt -= 1
                self._on_pool_break()
                lease.retry_at = time.monotonic() + self.config.backoff_base
                return
            with self._lock:
                lease.arm("leased", future)
            self._note_op("leased", lease, attempt=lease.attempt)

    def _next_wakeup(self) -> float:
        """Seconds until the next scheduled transition, clamped for the loop."""
        now = time.monotonic()
        horizon: list[float] = []
        with self._lock:
            for lease in self.leases:
                if lease.state == "queued":
                    horizon.append(lease.retry_at)
                elif lease.state == "leased":
                    if lease.expired:
                        horizon.append(lease.next_escalation_at)
                    elif lease.deadline is not None:
                        horizon.append(lease.deadline)
        if not horizon:
            return 0.25
        return min(0.5, max(0.02, min(horizon) - now))

    def _reap(self) -> None:
        """Wait for the next future to settle and resolve everything done."""
        with self._lock:
            waitables = {
                lease.future: lease
                for lease in self.leases
                if lease.state == "leased" and lease.future is not None
            }
        timeout = self._next_wakeup()
        if not waitables:
            if any(lease.state == "queued" for lease in self.leases):
                time.sleep(timeout)
            return
        done, _ = wait(list(waitables), timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            return
        broken: list[JobLease] = []
        for future in done:
            lease = waitables[future]
            if self._resolve(lease, future) == "broken":
                broken.append(lease)
        if broken:
            # One dead worker breaks *every* in-flight future of the
            # executor; drain the rest of the wave now so it is accounted
            # as one death, not one per future.
            _WORKER_DEATHS.inc()
            self._on_pool_break()
            survivors = [
                (future, lease)
                for future, lease in waitables.items()
                if lease.state == "leased" and lease not in broken
            ]
            if survivors:
                wait([future for future, _ in survivors], timeout=2.0)
                for future, lease in survivors:
                    if future.done() and self._resolve(lease, future) == "broken":
                        broken.append(lease)
            for lease in broken:
                if lease.started:
                    # The job was genuinely running when its worker died:
                    # that attempt is spent (a poison job that *kills* its
                    # worker must still hit quarantine, not retry forever).
                    self._requeue(lease, "lease_expired" if lease.expired else "worker_death")
                else:
                    self._requeue(lease, "pool_reset", count_attempt=False)

    def _resolve(self, lease: JobLease, future: Future) -> str | None:
        """Fold one settled future into its lease; returns ``"broken"`` on BPP."""
        try:
            result = future.result(timeout=0)
        except BrokenProcessPool as exc:
            lease.last_error = f"worker pool broke: {exc}"
            return "broken"
        except CancelledError:
            self._requeue(lease, "pool_reset", count_attempt=False)
            return None
        except Exception as exc:  # noqa: BLE001 — dispatch infrastructure failure
            lease.last_error = f"{type(exc).__name__}: {exc}"
            self._requeue(lease, "dispatch_error")
            return None
        # Fold the worker's metrics snapshot into the parent registry (the
        # supervised path bypasses PlannerPool.collect, which normally does
        # this) — counters from failed attempts accumulate too.
        self.pool._note(result, "supervised")
        self._settle(lease, result)
        return None

    def _settle(self, lease: JobLease, result: JobResult) -> None:
        """Complete ``lease`` with an ``ok`` attempt, else re-queue (or quarantine) it."""
        if result.ok:
            self._complete(lease, result)
        else:
            lease.last_error = result.error
            self._requeue(lease, "lease_expired" if lease.expired else result.status)

    def _on_pool_break(self) -> None:
        """Reset the executor; too many breaks in a row degrade to inline."""
        self._breaks_in_a_row += 1
        self.pool.reset_broken()
        if self._breaks_in_a_row >= UNHEALTHY_AFTER:
            self._degraded = True

    def _check_leases(self) -> None:
        """Expire silent leases and walk the escalation ladder on their owners."""
        now = time.monotonic()
        with self._lock:
            leased = [lease for lease in self.leases if lease.state == "leased"]
        for lease in leased:
            if not lease.started or lease.deadline is None:
                continue
            if not lease.expired and now >= lease.deadline:
                lease.expired = True
                lease.escalation = 0
                lease.next_escalation_at = now
                _LEASE_EXPIRIES.inc()
                self._note_op(
                    "lease_expired", lease, attempt=lease.attempt, pid=lease.owner_pid
                )
            if (
                lease.expired
                and lease.future is not None
                and not lease.future.done()
                and now >= lease.next_escalation_at
            ):
                self._escalate(lease, now)

    def _escalate(self, lease: JobLease, now: float) -> None:
        """Fire the next rung against the lease's owner: cancel → TERM → KILL.

        Soft cancel lets a worker stuck in cancellable Python resolve the
        job as ``cancelled`` and stay alive (the pool survives); SIGTERM
        takes down a worker that armed cancellation but never absorbed it;
        SIGKILL is the last resort for a worker wedged in native code — its
        death surfaces as a pool break and the job re-queues from there.
        """
        lease.escalation += 1
        lease.next_escalation_at = now + CANCEL_GRACE
        pid = lease.owner_pid
        if pid is None or pid <= 0:
            return
        rung = {1: signal.SIGUSR1, 2: signal.SIGTERM}.get(lease.escalation, signal.SIGKILL)
        try:
            os.kill(pid, rung)
        except (ProcessLookupError, PermissionError):
            pass  # already gone (its future is about to break)
        except Exception:  # noqa: BLE001 — platform without the signal
            pass

