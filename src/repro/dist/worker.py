"""The standalone worker agent behind ``eblow worker --broker DIR``.

A worker is a plain process pointed at a spool directory: it claims jobs
(:meth:`~repro.dist.broker.Broker.claim`), heartbeats by refreshing its
lease file's mtime, executes through the ordinary planner registry
(:func:`~repro.runtime.jobs.execute_job` — the exact code path the local
pool runs), and commits through the broker's fenced two-phase write.  No
connection to the driver exists: a worker that is ``kill -9``'d simply
stops touching its files, and the driver's :meth:`Broker.reap` notices.

An idle worker waits on its ``claim`` doorbell (:mod:`repro.dist.bells`)
for at most ``poll_interval`` seconds between claims: an enqueue on the
same host rings it at once, and the poll picks up jobs spooled from other
hosts.

Store probes happen worker-side too: a re-queued job whose previous
attempt already landed in the content-addressed store is committed from
the cached result without re-planning — the distributed analogue of the
engine's store-hit fast path.

The agent honours the deterministic fault harness
(:mod:`repro.runtime.faults`): it marks itself as a worker process so
``kill_worker`` faults fire, and its heartbeat thread suppresses beats
while :func:`faults.heartbeat_stalled` holds — which is how the chaos
suite manufactures lease expiries and stale late finishes on one box.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime import faults
from repro.runtime.jobs import execute_job
from repro.dist.bells import CLAIM, Doorbell
from repro.dist.broker import Broker, BrokerLease

__all__ = ["WorkerAgent", "run_worker"]

_WORKER_JOBS = obs_metrics.declare_counter(
    "dist_worker_jobs_total", "Jobs processed by this worker agent, by outcome", ("outcome",)
)


class _LeaseHeartbeat(threading.Thread):
    """Refresh one lease's mtime every ``interval`` seconds.

    Mirrors the pool's worker-side heartbeat thread: the first beat is
    immediate, beats are suppressed while the fault harness stalls this
    job, and ownership is re-verified on every touch — losing the lease
    (expired + re-claimed) flips ``lease.lost`` and stops the thread.
    """

    def __init__(self, broker: Broker, lease: BrokerLease, interval: float,
                 worker: str | None = None) -> None:
        super().__init__(name=f"lease-heartbeat-{lease.job_id}", daemon=True)
        self._broker = broker
        self._lease = lease
        self._worker = worker
        self._interval = max(0.01, interval)
        # Not named _stop: threading.Thread owns a private _stop method.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)

    def run(self) -> None:
        while not self._halt.is_set():
            if not faults.heartbeat_stalled(self._lease.job_id):
                if not self._broker.heartbeat(self._lease):
                    return
                if self._worker is not None:
                    # A worker busy on a long job is alive: refresh its
                    # registry entry too, or the reaper's mtime-staleness
                    # check would declare it dead mid-computation.
                    self._broker.touch_worker(self._worker)
            if self._halt.wait(self._interval):
                return


@dataclass
class WorkerAgent:
    """One claim/execute/commit loop over a broker spool.

    ``poll_interval`` is the longest an idle worker waits between claims;
    a same-host enqueue or :meth:`request_stop` wakes it sooner.
    ``max_jobs`` and ``idle_exit`` bound the loop for tests and CI
    (``None`` = run until signalled).  ``mark_process`` tags the hosting
    process as a worker for ``kill_worker`` faults — leave it off when
    embedding the agent in a driver thread (tests do), or a chaos fault
    aimed at workers would kill the driver.
    """

    broker: Broker
    worker_id: str = field(default_factory=lambda: f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}")
    poll_interval: float = 0.1
    max_jobs: int | None = None
    idle_exit: float | None = None
    mark_process: bool = True

    def __post_init__(self) -> None:
        self._stop = threading.Event()
        self._bell = None
        self.jobs_done = 0

    def request_stop(self, signum=None, frame=None) -> None:
        """Finish the in-flight job (if any) and exit the loop."""
        self._stop.set()
        bell = self._bell
        if bell is not None:
            bell.ring()  # an idle worker exits now, not after its poll

    # ------------------------------------------------------------------ #
    def run(self) -> dict:
        """Serve the queue until stopped; returns a summary dict."""
        broker = self.broker
        if self.mark_process:
            faults.mark_worker_process()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(signum, self.request_stop)
                except (ValueError, OSError):
                    pass
        broker.register_worker(self.worker_id)
        idle_since = time.monotonic()
        outcomes = {"committed": 0, "stale": 0, "requeued": 0, "quarantined": 0}
        # Bound before the first claim: an enqueue that lands between an
        # empty claim and the wait below still rings it.
        self._bell = bell = Doorbell(broker.bells, CLAIM, self.worker_id)
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    break
                lease = broker.claim(self.worker_id)
                if lease is None:
                    broker.touch_worker(self.worker_id)
                    if (self.idle_exit is not None
                            and time.monotonic() - idle_since > self.idle_exit):
                        break
                    bell.wait(self.poll_interval)
                    continue
                idle_since = time.monotonic()
                outcome = self._serve(lease)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                self.jobs_done += 1
                broker.touch_worker(self.worker_id)
        finally:
            self._bell = None
            bell.close()
            broker.deregister_worker(self.worker_id)
        return {"worker": self.worker_id, "jobs": self.jobs_done, **outcomes}

    # ------------------------------------------------------------------ #
    def _serve(self, lease: BrokerLease) -> str:
        """Execute one claimed job and commit/release it. Returns the outcome."""
        job = lease.job
        store = self.broker.store
        heartbeat = _LeaseHeartbeat(
            self.broker, lease, self.broker.config.heartbeat_interval,
            worker=self.worker_id,
        )
        heartbeat.start()
        try:
            with span("dist_job", job_id=lease.job_id, epoch=lease.epoch,
                      worker=self.worker_id):
                cached = store.get(job) if store is not None else None
                result = cached if cached is not None else execute_job(job)
        finally:
            heartbeat.stop()
        if result.ok:
            outcome = self.broker.commit(lease, result)
        else:  # any failure, known status or not, is never a commit
            outcome = self.broker.release(lease, result)
        _WORKER_JOBS.inc(outcome=outcome)
        return outcome


def run_worker(
    broker_dir: str | os.PathLike,
    queue: str = "default",
    *,
    worker_id: str | None = None,
    poll_interval: float = 0.1,
    max_jobs: int | None = None,
    idle_exit: float | None = None,
    wait: float = 10.0,
) -> dict:
    """CLI entry: attach to ``broker_dir`` and serve ``queue``.

    ``wait`` tolerates the driver creating the spool concurrently (the CI
    chaos smoke launches workers and the batch in either order).
    """
    broker = Broker.open(broker_dir, queue=queue, wait=wait)
    agent = WorkerAgent(
        broker,
        poll_interval=poll_interval,
        max_jobs=max_jobs,
        idle_exit=idle_exit,
        **({"worker_id": worker_id} if worker_id else {}),
    )
    return agent.run()
