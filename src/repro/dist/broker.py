"""Filesystem-backed durable work-queue broker with fenced leases.

The broker is a *directory*, not a process: every piece of queue state —
job payloads, leases, results, quarantine — lives in a spool directory
that any number of driver and worker processes manipulate with atomic
filesystem primitives.  A shared filesystem (NFS, a bind mount, one box's
``/tmp``) is the only transport, which makes the design trivially durable:
a crashed driver or worker loses nothing, because nothing lived in memory.

Spool layout (one subtree per queue)::

    <root>/broker.json             # queue-wide config (store, timeouts)
    <root>/<queue>/queued/<id>.json      # immutable job payloads
    <root>/<queue>/leased/<id>.json      # claim files (O_CREAT|O_EXCL)
    <root>/<queue>/done/<id>.json        # commit markers (O_CREAT|O_EXCL)
    <root>/<queue>/quarantine/<id>.json  # poison jobs after max_attempts
    <root>/<queue>/meta/<id>.json        # per-job epoch / retry-at sidecar
    <root>/<queue>/workers/<wid>.json    # worker registry (mtime = liveness)
    <root>/<queue>/bells/<kind>.<host>.<owner>  # same-host doorbells (empty)
    <root>/<queue>/ledger.jsonl          # NDJSON ledger (JobJournal schema)

Correctness rests on three primitives:

* **Exclusive claims** — a worker takes a job by creating the lease file
  with ``O_CREAT | O_EXCL``; the filesystem guarantees one winner no matter
  how many workers race.
* **Lease epochs as fencing tokens** — each successful claim bumps the
  job's epoch (``meta/<id>.json``), and a commit is only honoured when the
  committer's epoch is still current *and* it wins the ``O_EXCL`` creation
  of the ``done/`` marker.  A stale worker that wakes up after its lease
  was expired and re-queued therefore cannot double-record: its late commit
  loses the epoch check (or the marker race) and is discarded — harmlessly,
  because job ids are content hashes and the planners are deterministic,
  so the re-queued attempt's plan is bit-identical anyway.
* **mtime heartbeats** — the lease file's mtime is the worker's heartbeat;
  :meth:`Broker.reap` expires leases whose mtime is older than
  ``lease_timeout`` (and, same-box, leases whose owner pid is gone), then
  re-queues or quarantines under the in-process supervisor's
  :class:`~repro.runtime.supervision.LeasePolicy`.

The ledger reuses the :class:`~repro.runtime.supervision.JobJournal`
record schema (``{"record": "lease", "v": 1, "op": ..., "job_id": ...}``),
so ``eblow jobs`` and :meth:`JobJournal.replay` work on broker ledgers
unchanged; concurrent appends are safe because each record is one short
``O_APPEND`` write.  See ``docs/DISTRIBUTED.md`` for the full lifecycle
and the exactly-once argument.

Waiters do not sleep out their poll when the change comes from their own
host: :meth:`Broker.enqueue` rings the idle workers' ``claim`` bells, and
commits and quarantines ring the collecting drivers' ``done`` bells (see
:mod:`repro.dist.bells`).  The poll stays the longest wait, and the only
wake across hosts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import ValidationError
from repro.io.serialization import canonical_json, write_text_atomic
from repro.model import OSPInstance
from repro.obs import metrics as obs_metrics
from repro.runtime.jobs import JobResult, PlanJob, PlannerSpec
from repro.runtime.store import ResultStore
from repro.runtime.supervision import BACKOFF_SEED, JobJournal, LeasePolicy
from repro.dist import bells

__all__ = [
    "BROKER_VERSION",
    "Broker",
    "BrokerConfig",
    "BrokerLease",
    "job_payload",
    "job_from_payload",
]

#: Version stamp of ``broker.json`` and the spool payload records.
BROKER_VERSION = 1

#: Spool state subdirectories, in lifecycle order.
STATES = ("queued", "leased", "done", "quarantine")

_DIST_JOBS = obs_metrics.declare_counter(
    "dist_jobs_total", "Broker job lifecycle transitions by operation", ("op",)
)
_DIST_LEASE_EXPIRIES = obs_metrics.declare_counter(
    "dist_lease_expiries_total", "Broker leases expired without a live heartbeat"
)
_DIST_WORKER_DEATHS = obs_metrics.declare_counter(
    "dist_worker_deaths_total", "Broker workers detected dead (pid gone or heartbeat stale)"
)
_DIST_CLAIM_CONFLICTS = obs_metrics.declare_counter(
    "dist_claim_conflicts_total", "Claim attempts that lost the O_EXCL race"
)
_DIST_STALE_RESULTS = obs_metrics.declare_counter(
    "dist_stale_results_total", "Late commits discarded by epoch fencing"
)
_DIST_QUEUE_DEPTH = obs_metrics.declare_gauge(
    "dist_queue_depth", "Broker spool entries per state", ("state",)
)
_DIST_WORKERS = obs_metrics.declare_gauge(
    "dist_workers", "Workers currently registered on the broker spool"
)


@dataclass(frozen=True)
class BrokerConfig(LeasePolicy):
    """Queue-wide tunables, persisted in ``broker.json`` at creation.

    Workers read the persisted copy, so every process that touches one
    spool agrees on the store location and the lease policy.  A job's
    attempts are its claims, and the heartbeat refreshes the lease file's
    mtime.
    """

    #: Result-store root shared by drivers and workers; ``None`` disables
    #: the store, in which case full results ride on the done markers.
    store_dir: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "BrokerConfig":
        """The config in ``data``; keys it does not know (old fields) are ignored."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(data).items() if k in known})


@dataclass
class BrokerLease:
    """One worker's claim on one job: the fencing token plus the payload."""

    job: PlanJob
    job_id: str
    #: The fencing token: strictly increases across claims of one job.
    epoch: int
    worker: str
    pid: int
    claimed_ts: float = field(default_factory=time.time)
    #: Set by the heartbeat when the lease file vanished or changed hands.
    lost: bool = False


# --------------------------------------------------------------------------- #
# Job payload (what crosses the spool — JSON, no pickles, no shared memory)
# --------------------------------------------------------------------------- #


def job_payload(job: PlanJob) -> dict:
    """The JSON spool record for ``job``.

    Unlike the in-process :class:`~repro.runtime.jobs.JobDescriptor`, the
    spool cannot lean on a shared-memory arena: inline instances ship as
    their full ``to_dict`` payload.  The precomputed content hashes ride
    along so the worker-side rebuild has byte-identical identity.
    """
    return {
        "record": "job",
        "v": BROKER_VERSION,
        "job_id": job.job_id,
        "spec": job.spec.to_dict(),
        "case": job.case,
        "scale": job.scale,
        "instance": job.instance.to_dict() if job.instance is not None else None,
        "timeout": job.timeout,
        "label": job.label,
        "instance_hash": job.instance_hash,
        "config_hash": job.config_hash,
    }


def job_from_payload(payload: Mapping) -> PlanJob:
    """Rebuild the :class:`PlanJob` a spool record describes."""
    instance = None
    if payload.get("instance") is not None:
        instance = OSPInstance.from_dict(payload["instance"])
    job = PlanJob(
        spec=PlannerSpec.from_dict(payload["spec"]),
        case=payload.get("case"),
        scale=payload.get("scale"),
        instance=instance,
        timeout=payload.get("timeout"),
        label=payload.get("label"),
    )
    # Seed the cached content hashes from the enqueuing side (cached_property
    # stores straight into __dict__) so identities match bit-for-bit.
    for key in ("instance_hash", "config_hash", "job_id"):
        if payload.get(key):
            job.__dict__[key] = payload[key]
    return job


def _read_json(path: Path) -> dict | None:
    """``path`` parsed as a JSON object, or ``None`` (missing/torn/invalid)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class Broker:
    """One queue's spool directory plus the protocol that manipulates it.

    Instances are cheap, carry no daemon state, and are safe to recreate
    at will — *the directory is the broker*.  Use :meth:`create` from the
    driver (writes ``broker.json`` if absent) and :meth:`open` from
    workers (requires it, optionally waiting for it to appear).
    """

    def __init__(self, root: str | os.PathLike, queue: str = "default",
                 config: BrokerConfig | None = None) -> None:
        self.root = Path(root)
        self.queue = queue
        self.config = config or BrokerConfig()
        self.dir = self.root / queue
        self.queued = self.dir / "queued"
        self.leased = self.dir / "leased"
        self.done = self.dir / "done"
        self.quarantine = self.dir / "quarantine"
        self.meta = self.dir / "meta"
        self.workers = self.dir / "workers"
        self.bells = self.dir / "bells"
        self.ledger_path = self.dir / "ledger.jsonl"
        self._ledger: JobJournal | None = None
        self._rng = random.Random(BACKOFF_SEED)
        # Polling must not list done/ or quarantine/, which keep every job
        # ever settled: reap() follows the ledger from this byte offset, and
        # the settled-state gauges are seeded by one listing, then advanced
        # by the ops read from it.  One commit's ring wakes every collecting
        # thread at once, so the offset is advanced under a lock: each record
        # is read by one of them.
        self._ledger_offset: int | None = None
        self._ledger_lock = threading.Lock()
        self._settled: dict[str, int] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, root: str | os.PathLike, queue: str = "default",
               config: BrokerConfig | None = None) -> "Broker":
        """Initialise (or re-attach to) the spool at ``root``.

        Creating an existing spool is idempotent and *keeps* the persisted
        config — a restarted driver re-attaches to the queue it left, which
        is what makes broker restarts a non-event for durability.
        """
        root = Path(root)
        manifest = root / "broker.json"
        existing = _read_json(manifest)
        if existing is not None:
            config = BrokerConfig.from_dict(existing.get("config", {}))
        broker = cls(root, queue=queue, config=config)._make_layout()
        if existing is None:
            write_text_atomic(
                manifest,
                canonical_json({"record": "broker", "v": BROKER_VERSION,
                                "config": broker.config.to_dict()}) + "\n",
            )
        return broker

    @classmethod
    def open(cls, root: str | os.PathLike, queue: str = "default",
             wait: float = 0.0) -> "Broker":
        """Attach to an existing spool; ``wait`` seconds for it to appear.

        Workers are typically launched concurrently with the driver that
        creates the spool, so a small ``wait`` absorbs the startup race.
        """
        root = Path(root)
        manifest = root / "broker.json"
        deadline = time.monotonic() + max(0.0, wait)
        while True:
            data = _read_json(manifest)
            if data is not None:
                config = BrokerConfig.from_dict(data.get("config", {}))
                return cls(root, queue=queue, config=config)._make_layout()
            if time.monotonic() >= deadline:
                raise ValidationError(
                    f"no broker spool at {root} (missing or unreadable broker.json)"
                )
            time.sleep(0.05)

    def _make_layout(self) -> "Broker":
        for path in (self.queued, self.leased, self.done, self.quarantine,
                     self.meta, self.workers, self.bells):
            path.mkdir(parents=True, exist_ok=True)
        return self

    @cached_property
    def store(self) -> ResultStore | None:
        """The queue's shared result store: the one workers commit to."""
        if self.config.store_dir is None:
            return None
        return ResultStore(self.config.store_dir)

    @property
    def ledger(self) -> JobJournal:
        """The queue ledger (attach mode: shared, append-only, never truncated)."""
        if self._ledger is None:
            self._ledger = JobJournal(self.ledger_path, attach=True)
        return self._ledger

    # ------------------------------------------------------------------ #
    # Spool paths + tolerant readers
    # ------------------------------------------------------------------ #
    def _read_meta(self, job_id: str) -> dict:
        data = _read_json(self.meta / f"{job_id}.json") or {}
        return {
            "epoch": int(data.get("epoch", 0) or 0),
            "retry_at": float(data.get("retry_at", 0.0) or 0.0),
        }

    def _write_meta(self, job_id: str, meta: Mapping) -> None:
        write_text_atomic(self.meta / f"{job_id}.json", canonical_json(dict(meta)) + "\n")

    def _defer(self, job_id: str, delay: float, epoch: int | None = None) -> None:
        """Hold the job's next claim back ``delay`` seconds (if still at ``epoch``)."""
        meta = self._read_meta(job_id)
        if epoch is None or meta["epoch"] == epoch:
            self._write_meta(job_id, {"epoch": meta["epoch"], "retry_at": time.time() + delay})

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def enqueue(self, job: PlanJob) -> str:
        """Spool ``job``; returns ``queued`` / ``exists`` / ``done``.

        Enqueueing is idempotent under content identity: a job already
        spooled (or already committed) is left untouched, which is what
        makes driver restarts and resumed batches replay for free.
        """
        job_id = job.job_id
        if (self.done / f"{job_id}.json").exists():
            return "done"
        if (self.quarantine / f"{job_id}.json").exists():
            return "done"
        payload_path = self.queued / f"{job_id}.json"
        if payload_path.exists():
            return "exists"
        if not (self.meta / f"{job_id}.json").exists():
            self._write_meta(job_id, {"epoch": 0, "retry_at": 0.0})
        write_text_atomic(payload_path, canonical_json(job_payload(job)) + "\n")
        self.ledger.append(
            "queued", job_id, case=job.case_name, label=job.display_label,
            planner=job.spec.planner, queue=self.queue,
        )
        _DIST_JOBS.inc(op="queued")
        bells.ring(self.bells, bells.CLAIM)
        return "queued"

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def claim(self, worker: str, pid: int | None = None) -> BrokerLease | None:
        """Claim the first available queued job, or ``None``.

        The claim file is created with ``O_CREAT | O_EXCL`` — the filesystem
        arbitrates racing workers — and carries the *new* epoch, bumped from
        the job's meta sidecar.  Only the claim winner advances the meta
        epoch, so the bump needs no further locking.
        """
        pid = os.getpid() if pid is None else pid
        now = time.time()
        try:
            candidates = sorted(p.stem for p in self.queued.glob("*.json"))
        except OSError:
            return None
        for job_id in candidates:
            if (self.done / f"{job_id}.json").exists():
                continue
            if (self.leased / f"{job_id}.json").exists():
                continue
            meta = self._read_meta(job_id)
            if meta["retry_at"] > now:
                continue
            if self.config.requeue_delay(meta["epoch"]) is None:
                continue  # poison: its claims are spent
            epoch = meta["epoch"] + 1
            claim = {
                "record": "claim", "v": BROKER_VERSION, "job_id": job_id,
                "epoch": epoch, "worker": worker, "pid": pid,
                "ts": round(now, 6),
            }
            lease_path = self.leased / f"{job_id}.json"
            try:
                fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                _DIST_CLAIM_CONFLICTS.inc()
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(claim) + "\n")
            self._write_meta(job_id, {"epoch": epoch, "retry_at": 0.0})
            payload = _read_json(self.queued / f"{job_id}.json")
            if payload is None:
                # Raced a concurrent commit's cleanup; fold the claim.
                try:
                    lease_path.unlink()
                except OSError:
                    pass
                continue
            self.ledger.append(
                "leased", job_id, worker=worker, pid=pid, epoch=epoch,
                attempt=epoch, queue=self.queue,
            )
            _DIST_JOBS.inc(op="claimed")
            return BrokerLease(
                job=job_from_payload(payload), job_id=job_id, epoch=epoch,
                worker=worker, pid=pid, claimed_ts=now,
            )
        return None

    def heartbeat(self, lease: BrokerLease) -> bool:
        """Refresh the lease's mtime heartbeat; False when the lease is lost.

        Ownership is verified before touching: after an expiry + re-claim
        the lease file belongs to a *different* epoch, and refreshing it
        would mask the new owner's own liveness.
        """
        path = self.leased / f"{lease.job_id}.json"
        current = _read_json(path)
        if current is None or int(current.get("epoch", -1)) != lease.epoch:
            lease.lost = True
            return False
        try:
            os.utime(path)
        except OSError:
            lease.lost = True
            return False
        return True

    def commit(self, lease: BrokerLease, result: JobResult) -> str:
        """Fenced two-phase commit; returns ``committed`` or ``stale``.

        Phase one writes the result where it is idempotent (the queue's
        content-addressed :attr:`store` — a stale duplicate write lands on
        the same key with bit-identical bytes).  Phase two is the fenced
        part: the commit only counts if the lease epoch is still current
        *and* this worker wins the ``O_EXCL`` creation of the ``done/``
        marker.  Every interleaving of stale wake-ups therefore yields
        exactly one marker.

        A failed store write does not fail the commit: the marker then
        carries the whole result, as on a storeless queue, so the driver
        still collects the plan.  A stored result's marker names the store
        version (:func:`~repro.runtime.store.code_version`) it was written
        under, so a driver running other code still finds it.
        """
        job_id = lease.job_id
        meta = self._read_meta(job_id)
        if meta["epoch"] != lease.epoch:
            self._discard_stale(lease, meta["epoch"])
            return "stale"
        stored = result.ok and self.store is not None and (
            result.cache_hit or self.store.put(lease.job, result) is not None
        )
        marker: dict = {
            "record": "done", "v": BROKER_VERSION, "job_id": job_id,
            "epoch": lease.epoch, "worker": lease.worker,
            "status": result.status, "writing_time": result.writing_time,
            "cache_hit": result.cache_hit, "ts": round(time.time(), 6),
        }
        if stored:
            marker["store_version"] = self.store.version
        else:
            # Failed results never enter the store; storeless queues and
            # failed store writes ship the whole result on the marker so
            # drivers can collect it.
            marker["result"] = result.to_dict()
        marker_path = self.done / f"{job_id}.json"
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            self._discard_stale(lease, meta["epoch"])
            return "stale"
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(marker) + "\n")
        self.ledger.append(
            "done", job_id, worker=lease.worker, epoch=lease.epoch,
            status=result.status, attempt=lease.epoch, queue=self.queue,
        )
        _DIST_JOBS.inc(op="committed")
        self._release_paths(job_id, lease.epoch)
        bells.ring(self.bells, bells.DONE)
        return "committed"

    def release(self, lease: BrokerLease, result: JobResult) -> str:
        """Give a *failed* attempt back; returns ``requeued`` or ``quarantined``.

        The lease policy decides, as in the in-process supervisor: jittered
        exponential backoff via the job's ``retry_at`` sidecar, poison
        quarantine once the epoch (== attempt count) reaches
        ``max_attempts``.
        """
        job_id = lease.job_id
        error = result.error or result.status
        delay = self.config.requeue_delay(lease.epoch, self._rng)
        if delay is None:
            self._quarantine(job_id, error=error, attempts=lease.epoch,
                             status=result.status)
            return "quarantined"
        self._defer(job_id, delay, epoch=lease.epoch)
        self.ledger.append(
            "requeued", job_id, reason=result.status, error=error,
            attempt=lease.epoch, delay=round(delay, 6), queue=self.queue,
        )
        _DIST_JOBS.inc(op="requeued")
        self._drop_lease(job_id, lease.epoch)
        return "requeued"

    # ------------------------------------------------------------------ #
    # Supervision (driver side)
    # ------------------------------------------------------------------ #
    def reap(self) -> dict:
        """Expire dead workers and stale leases; quarantine poison jobs.

        Death is detected two ways: a registered worker whose pid is gone
        (same-box fast path) and any lease or worker file whose mtime is
        older than ``lease_timeout`` (the cross-node-general signal — a
        partitioned worker looks exactly like a dead one, and the fencing
        epoch makes that safe).  Idempotent and safe to run from any
        process; drivers call it once per poll.

        ``summary["committed"]`` counts the commits ledgered since this
        instance's previous call (0 on the first), which drivers read as
        progress.  A poll costs O(live leases + workers + new ledger
        records), however many jobs the spool has settled.
        """
        now = time.time()
        ops = self._new_ledger_ops()
        summary = {"expired": 0, "worker_deaths": 0, "quarantined": 0,
                   "committed": ops.count("done")}
        dead_workers: set[str] = set()
        for path in self.workers.glob("*.json"):
            entry = _read_json(path)
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            pid = int(entry.get("pid", 0) or 0) if entry else 0
            stale = age > self.config.lease_timeout
            if (entry is not None and not _pid_alive(pid)) or stale:
                wid = (entry or {}).get("worker", path.stem)
                dead_workers.add(str(wid))
                try:
                    path.unlink()
                except OSError:
                    pass
                bells.drop_bells(self.bells, bells.CLAIM, str(wid))
                self.ledger.append(
                    "worker_dead", "-", worker=str(wid), pid=pid,
                    age=round(age, 3), queue=self.queue,
                )
                _DIST_WORKER_DEATHS.inc()
                summary["worker_deaths"] += 1
        for path in self.leased.glob("*.json"):
            claim = _read_json(path)
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            worker = str((claim or {}).get("worker", ""))
            expired = age > self.config.lease_timeout or worker in dead_workers
            if not expired:
                continue
            job_id = path.stem
            epoch = int((claim or {}).get("epoch", self._read_meta(job_id)["epoch"]) or 0)
            self.ledger.append(
                "lease_expired", job_id, worker=worker, epoch=epoch,
                age=round(age, 3), attempt=epoch, queue=self.queue,
            )
            _DIST_LEASE_EXPIRIES.inc()
            summary["expired"] += 1
            delay = self.config.requeue_delay(epoch, self._rng)
            if delay is None:
                self._quarantine(
                    job_id, status="error", attempts=epoch,
                    error=f"lease expired after {epoch} attempts "
                          f"(no heartbeat for {age:.1f}s)",
                )
                summary["quarantined"] += 1
                continue
            self._defer(job_id, delay)
            _DIST_JOBS.inc(op="requeued")
            try:
                path.unlink()
            except OSError:
                pass
        self._update_gauges(ops)
        return summary

    def _new_ledger_ops(self) -> list[str]:
        """The ``op`` of each complete ledger record appended since the last call.

        The first call only marks where the ledger ends (nothing is new yet).
        The file is reopened every time, so a shared filesystem revalidates it.
        """
        with self._ledger_lock:
            try:
                with open(self.ledger_path, "rb") as handle:
                    if self._ledger_offset is None:
                        self._ledger_offset = handle.seek(0, os.SEEK_END)
                    handle.seek(self._ledger_offset)
                    data = handle.read()
            except FileNotFoundError:
                self._ledger_offset = 0  # every record it will hold is new
                return []
            complete = data.rfind(b"\n") + 1  # a record still being written waits
            self._ledger_offset += complete
        ops = []
        for line in data[:complete].splitlines():
            try:
                ops.append(json.loads(line).get("op"))
            except (ValueError, AttributeError):
                continue  # a torn record from a crashed writer
        return ops

    # ------------------------------------------------------------------ #
    # Collection (driver side)
    # ------------------------------------------------------------------ #
    def status_of(self, job_id: str) -> str:
        """``done`` / ``quarantined`` / ``leased`` / ``queued`` / ``unknown``."""
        if (self.done / f"{job_id}.json").exists():
            return "done"
        if (self.quarantine / f"{job_id}.json").exists():
            return "quarantined"
        if (self.leased / f"{job_id}.json").exists():
            return "leased"
        if (self.queued / f"{job_id}.json").exists():
            return "queued"
        return "unknown"

    def fetch(self, job: PlanJob) -> JobResult | None:
        """The terminal result for ``job`` (done or quarantined), or ``None``.

        A marker without a result points into :attr:`store`, the store the
        workers committed to, under the version the marker names (the
        committing worker's code version, which need not be this process's).
        A committed result is a cache hit only if the committing worker
        served it from the store; reading it back here does not make it one.
        """
        marker = _read_json(self.done / f"{job.job_id}.json")
        if marker is not None:
            if marker.get("result") is not None:
                result = JobResult.from_dict(marker["result"])
            else:
                store = self.store
                version = marker.get("store_version")
                if store is not None and version is not None and version != store.version:
                    store = ResultStore(store.root, version=version)
                result = store.get(job) if store is not None else None
                if result is None:
                    return None  # marker ahead of a pruned/absent store entry
            result.cache_hit = bool(marker.get("cache_hit", False))
            result.attempts = max(result.attempts, int(marker.get("epoch", 1) or 1))
            return result
        poison = _read_json(self.quarantine / f"{job.job_id}.json")
        if poison is not None:
            return JobResult(
                job_id=job.job_id, case=job.case_name, label=job.display_label,
                planner=job.spec.planner, status="quarantined",
                attempts=int(poison.get("attempts", 0) or 0),
                error=poison.get("error") or "quarantined",
            )
        return None

    def inspect(self) -> dict:
        """Spool introspection for ``eblow jobs``: counts, leases, workers."""
        now = time.time()
        counts = {state: self._count(state) for state in STATES}
        leases = []
        for path in sorted(self.leased.glob("*.json")):
            claim = _read_json(path) or {}
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            leases.append({
                "job_id": path.stem,
                "worker": claim.get("worker"),
                "pid": claim.get("pid"),
                "epoch": claim.get("epoch"),
                "age": round(age, 3),
                "stale": age > self.config.lease_timeout,
            })
        workers = []
        for path in sorted(self.workers.glob("*.json")):
            entry = _read_json(path) or {}
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            pid = int(entry.get("pid", 0) or 0)
            workers.append({
                "worker": entry.get("worker", path.stem),
                "pid": pid,
                "alive": _pid_alive(pid),
                "age": round(age, 3),
            })
        quarantined = []
        for path in sorted(self.quarantine.glob("*.json")):
            entry = _read_json(path) or {}
            quarantined.append({
                "job_id": path.stem,
                "attempts": entry.get("attempts"),
                "error": entry.get("error"),
            })
        return {
            "queue": self.queue,
            "counts": counts,
            "leases": leases,
            "workers": workers,
            "quarantined": quarantined,
            "config": self.config.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # Worker registry
    # ------------------------------------------------------------------ #
    def register_worker(self, worker: str, pid: int | None = None) -> Path:
        pid = os.getpid() if pid is None else pid
        path = self.workers / f"{worker}.json"
        write_text_atomic(path, canonical_json({
            "record": "worker", "v": BROKER_VERSION, "worker": worker,
            "pid": pid, "started": round(time.time(), 6),
        }) + "\n")
        self._update_gauges()
        return path

    def touch_worker(self, worker: str) -> None:
        try:
            os.utime(self.workers / f"{worker}.json")
        except OSError:
            pass

    def deregister_worker(self, worker: str) -> None:
        """Remove ``worker``'s registry entry and its claim bell marker."""
        try:
            (self.workers / f"{worker}.json").unlink()
        except OSError:
            pass
        bells.drop_bells(self.bells, bells.CLAIM, worker)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _discard_stale(self, lease: BrokerLease, current_epoch: int) -> None:
        self.ledger.append(
            "stale_discarded", lease.job_id, worker=lease.worker,
            epoch=lease.epoch, current_epoch=current_epoch, queue=self.queue,
        )
        _DIST_STALE_RESULTS.inc()
        self._drop_lease(lease.job_id, lease.epoch)

    def _drop_lease(self, job_id: str, epoch: int) -> None:
        """Unlink the lease file iff it still belongs to ``epoch``."""
        path = self.leased / f"{job_id}.json"
        current = _read_json(path)
        if current is not None and int(current.get("epoch", -1)) == epoch:
            try:
                path.unlink()
            except OSError:
                pass

    def _release_paths(self, job_id: str, epoch: int) -> None:
        try:
            (self.queued / f"{job_id}.json").unlink()
        except OSError:
            pass
        self._drop_lease(job_id, epoch)

    def _quarantine(self, job_id: str, *, error: str, attempts: int,
                    status: str = "error") -> None:
        payload = _read_json(self.queued / f"{job_id}.json")
        write_text_atomic(self.quarantine / f"{job_id}.json", canonical_json({
            "record": "quarantine", "v": BROKER_VERSION, "job_id": job_id,
            "error": error, "status": status, "attempts": attempts,
            "ts": round(time.time(), 6), "job": payload,
        }) + "\n")
        self.ledger.append(
            "quarantined", job_id, error=error, attempt=attempts,
            reason=status, queue=self.queue,
        )
        _DIST_JOBS.inc(op="quarantined")
        try:
            (self.queued / f"{job_id}.json").unlink()
        except OSError:
            pass
        try:
            (self.leased / f"{job_id}.json").unlink()
        except OSError:
            pass
        bells.ring(self.bells, bells.DONE)

    def _count(self, state: str) -> int:
        return len(list(getattr(self, state).glob("*.json")))

    def _update_gauges(self, ops: Sequence[str] = ()) -> None:
        if self._settled is not None:
            self._settled["done"] += ops.count("done")
            self._settled["quarantine"] += ops.count("quarantined")
        if obs_metrics.installed() is None:
            return
        if self._settled is None:
            self._settled = {state: self._count(state) for state in ("done", "quarantine")}
        depths = {**self._settled, "queued": self._count("queued"),
                  "leased": self._count("leased")}
        for state, depth in depths.items():
            _DIST_QUEUE_DEPTH.set(depth, state=state)
        _DIST_WORKERS.set(self._count("workers"))
