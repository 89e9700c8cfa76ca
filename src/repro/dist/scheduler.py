"""The broker :class:`~repro.runtime.Scheduler`: batches over a durable spool.

A :class:`~repro.runtime.Scheduler` decides where a batch executes, so the
same batch/portfolio API targets either substrate::

    run_jobs(jobs, scheduler=LocalScheduler(max_workers=4))        # local pool
    run_jobs(jobs, scheduler=BrokerScheduler("spool", workers=3))  # the queue

:class:`BrokerScheduler` spools jobs onto a
:class:`~repro.dist.broker.Broker` and collects fenced results, acting as
the *driver*: it runs the reaper (lease expiry, worker-death detection,
poison quarantine), optionally owns a fleet of worker subprocesses
(respawned on death, terminated on close), and resumes naturally —
collection is pure spool+store state, so a restarted driver re-enqueues
idempotently and picks up where the spool is.

Live ``PlanEvent`` streams do not cross the spool (workers are unrelated
processes; liveness rides on file mtimes instead).  ``on_event`` is
accepted for signature parity and receives nothing under the broker path.

While it collects, each :meth:`BrokerScheduler.iter_jobs` call waits on a
``done`` doorbell of its own (:mod:`repro.dist.bells`) for at most
``poll_interval`` seconds between result checks: a commit or quarantine on
the same host rings it at once, and the poll covers commits from other
hosts and runs the reaper.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Iterator

from repro.obs.tracing import span
from repro.runtime.engine import Scheduler
from repro.runtime.jobs import JobResult, PlanJob
from repro.dist.bells import DONE, Doorbell
from repro.dist.broker import Broker, BrokerConfig

__all__ = ["BrokerScheduler"]


def _pdeathsig_preexec() -> None:  # pragma: no cover - runs in the child
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except Exception:  # noqa: BLE001 — non-Linux
        pass


class BrokerScheduler(Scheduler):
    """Drive batches over a durable spool (see :mod:`repro.dist.broker`).

    ``workers`` > 0 makes the scheduler own a fleet of ``eblow worker``
    subprocesses (spawned lazily on the first batch, ``SIGTERM``'d then
    ``SIGKILL``'d on :meth:`close`, and replaced when they die, because
    worker death is a normal event here, not an error).  At most
    ``max_respawns`` replacements are spawned over the scheduler's life;
    ``max_respawns=0`` never replaces a worker.  ``workers=0`` relies on
    externally launched workers attached to the same spool.

    ``poll_interval`` is the longest a collecting driver waits between
    result checks and reaper passes (a same-host commit wakes it sooner);
    owned workers get it as their ``--poll``.  ``wait_timeout`` bounds how
    long collection waits without *any* spool progress before raising —
    the guard against a spool with no live workers at all (every other
    failure mode re-queues or quarantines).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        queue: str = "default",
        *,
        config: BrokerConfig | None = None,
        workers: int = 0,
        max_respawns: int = 8,
        poll_interval: float = 0.05,
        wait_timeout: float | None = None,
    ) -> None:
        self.broker = Broker.create(root, queue=queue, config=config)
        self.workers = max(0, int(workers))
        self.max_respawns = max_respawns
        self.poll_interval = poll_interval
        self.wait_timeout = wait_timeout
        self._procs: list[subprocess.Popen] = []
        self._spawned = 0
        self._worker_ids: list[str] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # Worker fleet
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> subprocess.Popen:
        worker_id = f"spawn-{os.getpid()}-{self._spawned}"
        self._worker_ids.append(worker_id)
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        cmd = [
            sys.executable, "-m", "repro", "worker",
            "--broker", str(self.broker.root),
            "--queue", self.broker.queue,
            "--poll", str(self.poll_interval),
            "--worker-id", worker_id,
        ]
        return subprocess.Popen(
            cmd,
            env=env,
            stdout=subprocess.DEVNULL,
            preexec_fn=_pdeathsig_preexec if os.name == "posix" else None,
        )

    def ensure_workers(self) -> None:
        """Bring the owned fleet up to strength (spawn + respawn)."""
        if self._closed or self.workers <= 0:
            return
        self._procs = [p for p in self._procs if p.poll() is None]
        budget = self.workers + self.max_respawns
        while len(self._procs) < self.workers and self._spawned < budget:
            self._spawned += 1
            self._procs.append(self._spawn_worker())

    def close(self) -> None:
        """Terminate the owned fleet and scrub its registry entries and bells."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []
        # A SIGKILL'd worker cannot deregister itself (nor unlist its bell);
        # scrub quietly so a deliberate shutdown is not ledgered as a death.
        for worker_id in self._worker_ids:
            self.broker.deregister_worker(worker_id)

    # ------------------------------------------------------------------ #
    # Batch driving
    # ------------------------------------------------------------------ #
    def iter_jobs(self, jobs, *, store=None, telemetry=None,
                  on_event=None) -> Iterator[JobResult]:
        """Spool ``jobs`` and stream fenced results in submission order.

        Store hits (``store``, else the spool's own) never touch the spool.
        Committed results are read back from the spool's store, the one its
        workers commit to, whatever ``store`` is.  Resume is implicit — the
        spool *is* the durable state, and enqueueing is idempotent under
        content identity — so a restarted driver pointed at the same spool
        collects committed jobs instantly and only waits on genuine
        leftovers, like the supervised path's ``resume=True``.
        """
        del on_event  # no live event transport crosses the spool
        jobs = list(jobs)
        broker = self.broker
        store = store if store is not None else broker.store
        hits: dict[int, JobResult] = {}
        with span("broker_dispatch", jobs=len(jobs), queue=broker.queue):
            for index, job in enumerate(jobs):
                cached = store.get(job) if store is not None else None
                if cached is not None:
                    hits[index] = cached
                    continue
                broker.enqueue(job)
        self.ensure_workers()
        # Bound before the first result check, so a commit that lands
        # between a check and the wait still rings it.
        bell = (Doorbell(broker.bells, DONE, f"{os.getpid()}-{uuid.uuid4().hex[:8]}")
                if len(hits) < len(jobs) else None)
        try:
            for index, job in enumerate(jobs):
                if index in hits:
                    result = hits[index]
                else:
                    result = self._collect(job, bell)
                if telemetry is not None:
                    telemetry.record(result)
                yield result
        finally:
            if bell is not None:
                bell.close()

    def _collect(self, job: PlanJob, bell: Doorbell) -> JobResult:
        broker = self.broker
        waited_from = time.monotonic()
        while True:
            result = broker.fetch(job)
            if result is not None:
                return result
            summary = broker.reap()
            if summary["committed"] or summary["expired"] or summary["worker_deaths"]:
                waited_from = time.monotonic()  # the spool made progress
            self.ensure_workers()
            if (self.wait_timeout is not None
                    and time.monotonic() - waited_from > self.wait_timeout):
                state = broker.status_of(job.job_id)
                fleet = len([p for p in self._procs if p.poll() is None])
                raise TimeoutError(
                    f"broker job {job.job_id} ({job.case_name}/{job.display_label}) "
                    f"made no progress for {self.wait_timeout:.1f}s "
                    f"(state={state}, live spawned workers={fleet}); "
                    f"is any worker attached to {broker.root}?"
                )
            bell.wait(self.poll_interval)
