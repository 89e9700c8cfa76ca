"""On-disk content-addressed result store for planning jobs.

Results are keyed on three coordinates, all of which must match for a hit:

* ``instance_hash`` — canonical-JSON hash of the planning input (a named
  case + scale, or the full inline instance dict),
* ``config_hash``  — hash of the planner spec (name + options),
* ``code_version`` — the package version plus a content fingerprint of the
  ``repro`` source tree (overridable with ``REPRO_CACHE_VERSION``), so *any*
  code change invalidates every cached plan without touching the files —
  results can never be served stale across planner edits.

Layout (one JSON file per result, written atomically)::

    <root>/<code_version>/<instance_hash[:2]>/<instance_hash>-<config_hash>.json

The default root is ``~/.cache/eblow`` (or ``$REPRO_CACHE_DIR``).  Only
``status == "ok"`` results are persisted; errors and timeouts always re-run.

Entries are written as an integrity envelope (``{"record": "result", "v": 1,
"sha256": ..., "result": {...}}``): :meth:`ResultStore.get` recomputes the
digest over the canonical-JSON result body and treats any mismatch — or an
unparsable / wrong-shape file — as corruption, moving the entry to
``<root>/quarantine/`` with a warning and reporting a miss, so a damaged
cache can degrade a run's speed but never its plans.  Pre-envelope entries
(bare result dicts) are still readable.

A failed write has the same posture: :meth:`ResultStore.put` never fails the
plan it was asked to keep.  The plan is still delivered, the first failure
of each store warns with its cause, and ``store_write_errors_total`` counts
every one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from functools import lru_cache
from pathlib import Path

from repro import __version__
from repro.io.serialization import canonical_json, write_text_atomic
from repro.obs import metrics as obs_metrics
from repro.runtime import faults
from repro.runtime.jobs import JobResult, PlanJob

__all__ = ["ResultStore", "default_cache_dir", "code_version", "STORE_SCHEMA_VERSION"]

_STORE_REQUESTS = obs_metrics.declare_counter(
    "store_requests_total", "Result-store lookups by outcome", ("outcome",)
)
_STORE_PUTS = obs_metrics.declare_counter(
    "store_puts_total", "Results persisted into the store"
)
_STORE_BYTES = obs_metrics.declare_counter(
    "store_bytes_total", "Bytes served from / written to the store", ("direction",)
)
_STORE_QUARANTINED = obs_metrics.declare_counter(
    "store_quarantined_total", "Corrupt store entries moved to quarantine"
)
_STORE_EVICTIONS = obs_metrics.declare_counter(
    "store_evictions_total", "Store entries evicted by prune (LRU by access time)"
)
_STORE_WRITE_ERRORS = obs_metrics.declare_counter(
    "store_write_errors_total", "Result-store writes that failed (the plan was still delivered)"
)

#: Envelope schema version of on-disk entries.
STORE_SCHEMA_VERSION = 1


@lru_cache(maxsize=1)
def _source_fingerprint() -> str:
    """Content hash of the ``repro`` package source (12 hex chars)."""
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def code_version() -> str:
    """Cache-namespace version: ``REPRO_CACHE_VERSION``, or version+source hash.

    Fingerprinting the source is deliberately over-aggressive (a docstring
    edit also invalidates): serving a stale plan silently is the failure mode
    the store must never have, recomputing a fresh one is merely slower.
    """
    override = os.environ.get("REPRO_CACHE_VERSION", "").strip()
    return override or f"{__version__}+{_source_fingerprint()}"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/eblow``, else ``~/.cache/eblow``."""
    override = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "eblow"


class ResultStore:
    """Content-addressed cache of :class:`JobResult` records."""

    def __init__(self, root: str | Path | None = None, version: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version or code_version()
        self._write_warned = False

    def path_for(self, job: PlanJob) -> Path:
        shard = job.instance_hash[:2]
        return self.root / self.version / shard / f"{job.instance_hash}-{job.config_hash}.json"

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def get(self, job: PlanJob) -> JobResult | None:
        """The cached result for ``job``, marked ``cache_hit=True``, or None.

        A corrupt entry — unparsable JSON, wrong shape, or an integrity
        digest that no longer matches the body — is quarantined (moved under
        ``<root>/quarantine/`` with a warning) and reported as a miss, so
        the job re-runs instead of receiving a damaged plan.
        """
        path = self.path_for(job)
        try:
            text = path.read_text()
        except OSError:
            _STORE_REQUESTS.inc(outcome="miss")
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("store entry is not a JSON object")
            if isinstance(data.get("result"), dict):
                body = data["result"]
                expected = data.get("sha256")
                if expected is not None:
                    actual = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
                    if actual != expected:
                        raise ValueError(
                            f"integrity digest mismatch (expected {expected[:12]}…, "
                            f"got {actual[:12]}…)"
                        )
                data = body
            # else: pre-envelope entry (bare result dict) — accepted as-is.
            result = JobResult.from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, reason=f"{type(exc).__name__}: {exc}")
            _STORE_REQUESTS.inc(outcome="miss")
            return None
        _STORE_REQUESTS.inc(outcome="hit")
        _STORE_BYTES.inc(len(text), direction="read")
        # Refresh the entry's access time explicitly: prune() evicts LRU by
        # atime, and relatime / noatime mounts would otherwise freeze it at
        # roughly the write time, turning LRU into FIFO.
        try:
            os.utime(path)
        except OSError:
            pass
        result.cache_hit = True
        # The stored record carries the label of whoever computed it; rebind
        # to the requesting job so comparison columns keyed on the label are
        # correct even when two grids name the same spec differently.
        result.label = job.display_label
        result.case = job.case_name
        return result

    def put(self, job: PlanJob, result: JobResult) -> Path | None:
        """Persist an ``ok`` result; the entry's path, or ``None`` if nothing was written.

        Errors, timeouts and cache hits are not written.  Neither is a
        result whose write fails (full disk, unwritable root): that costs a
        later run a cache miss, never this run its plan.
        """
        if not result.ok or result.cache_hit:
            return None
        body = result.to_dict()
        envelope = {
            "record": "result",
            "v": STORE_SCHEMA_VERSION,
            "sha256": hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest(),
            "result": body,
        }
        payload = faults.on_store_put(job, canonical_json(envelope))
        try:
            path = write_text_atomic(self.path_for(job), payload)
        except OSError as exc:
            _STORE_WRITE_ERRORS.inc()
            if not self._write_warned:
                self._write_warned = True
                warnings.warn(
                    f"result store {self.root} rejected a write "
                    f"({type(exc).__name__}: {exc}); plans are still delivered, "
                    "but are not cached",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        _STORE_PUTS.inc()
        _STORE_BYTES.inc(len(payload), direction="written")
        return path

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry under ``<root>/quarantine/`` (best-effort)."""
        try:
            relative = path.relative_to(self.root)
        except ValueError:
            relative = Path(path.name)
        destination = self.root / "quarantine" / relative
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            path.replace(destination)
            moved = f"moved to {destination}"
        except OSError:
            moved = "could not be moved"
        _STORE_QUARANTINED.inc()
        warnings.warn(
            f"corrupt result-store entry {path} ({reason}); {moved} — "
            "treating as a miss, the job will re-run",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _entries(self, all_versions: bool = False) -> list[Path]:
        base = self.root if all_versions else self.root / self.version
        if not base.is_dir():
            return []
        return sorted(base.rglob("*.json"))

    def stats(self) -> dict:
        """Entry/byte counts, per cache version."""
        per_version: dict[str, int] = {}
        total_bytes = 0
        for entry in self._entries(all_versions=True):
            version = entry.relative_to(self.root).parts[0]
            per_version[version] = per_version.get(version, 0) + 1
            total_bytes += entry.stat().st_size
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": sum(per_version.values()),
            "bytes": total_bytes,
            "per_version": per_version,
        }

    def clear(self, all_versions: bool = False) -> int:
        """Remove cached results (current version only unless told otherwise)."""
        removed = len(self._entries(all_versions=all_versions))
        target = self.root if all_versions else self.root / self.version
        if target.is_dir():
            shutil.rmtree(target)
        return removed

    def prune(self, max_bytes: int, all_versions: bool = True) -> dict:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        Recency is the entry's access time (:meth:`get` refreshes it on every
        hit, so LRU holds even on ``noatime`` mounts); ties break on path for
        determinism.  Entries of *other* cache versions are stale by
        construction (any code change rotates the namespace), so they age out
        first under the same LRU ordering — pass ``all_versions=False`` to
        restrict pruning to the current version's entries.

        Returns ``{"evicted", "bytes_freed", "bytes_remaining", "entries_remaining"}``.
        """
        max_bytes = max(0, int(max_bytes))
        entries = []
        for path in self._entries(all_versions=all_versions):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced a concurrent eviction
            entries.append((stat.st_atime, path, stat.st_size))
        total = sum(size for _, _, size in entries)
        evicted = 0
        bytes_freed = 0
        for _, path, size in sorted(entries, key=lambda item: (item[0], str(item[1]))):
            if total - bytes_freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
            bytes_freed += size
            _STORE_EVICTIONS.inc()
        return {
            "evicted": evicted,
            "bytes_freed": bytes_freed,
            "bytes_remaining": total - bytes_freed,
            "entries_remaining": len(entries) - evicted,
        }
