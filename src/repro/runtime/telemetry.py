"""Structured JSONL run manifests for batch executions.

Every executed (or cache-served) job appends one line to the manifest, so a
run's full history — who computed what, where, how long it took, and whether
the result store served it — is greppable and machine-readable:

.. code-block:: json

    {"ts": 1722244000.12, "job_id": "9f3c…", "case": "1T-1",
     "planner": "eblow-1d", "label": "e-blow", "status": "ok",
     "writing_time": 1180.0, "num_selected": 12, "runtime_seconds": 0.04,
     "wall_seconds": 0.05, "cache_hit": false, "worker_pid": 4242,
     "attempts": 1}

:func:`read_manifest` loads a manifest back; :func:`summarize_manifest`
aggregates it into the counters the CLI prints (and the acceptance checks
read the cache-hit rate from).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Mapping

from repro.io.serialization import canonical_json
from repro.runtime.jobs import JobResult

__all__ = ["Telemetry", "read_manifest", "summarize_manifest"]


class Telemetry:
    """Append-only JSONL manifest writer.

    Records are flushed line-by-line, so a crashed run leaves a readable
    prefix.  ``path=None`` keeps records in memory only (``.records``), which
    is how the CLI aggregates a summary without being asked for a manifest.

    One manifest describes one run: an existing file at ``path`` is truncated
    (otherwise re-running with the same ``--manifest`` would merge runs and
    skew every ``summarize_manifest`` counter, cache-hit rate included).
    Pass ``append=True`` to keep a rolling multi-run journal instead.
    """

    def __init__(self, path: str | Path | None = None, append: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.records: list[dict] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if not append:
                self.path.write_text("")

    def _write(self, entry: dict, extra: Mapping) -> dict:
        entry.update(extra)
        self.records.append(entry)
        if self.path is not None:
            with self.path.open("a") as handle:
                handle.write(canonical_json(entry) + "\n")
        return entry

    def record_event(self, event, **extra) -> dict:
        """Log one :class:`~repro.events.PlanEvent` as an event record.

        Event records carry ``"record": "event"`` and no ``status`` field;
        :func:`summarize_manifest` skips them, so a manifest may freely mix
        job outcomes with fine-grained progress streams.
        """
        entry = {"ts": time.time(), "v": 1, "record": "event", **event.to_dict()}
        return self._write(entry, extra)

    def record_metrics(self, snapshot: Mapping, **extra) -> dict:
        """Log one :mod:`repro.obs` metrics snapshot as a ``metrics`` record.

        Written at end of run (the CLI's ``--metrics-out`` path also writes
        one into the manifest when both flags are given), so a manifest is a
        self-contained run report: job outcomes, event stream, and the final
        counters in one file.
        """
        entry = {
            "ts": time.time(),
            "v": 1,
            "record": "metrics",
            "metrics": dict(snapshot.get("metrics", snapshot)),
        }
        return self._write(entry, extra)

    def record(self, result: JobResult, **extra) -> dict:
        """Log one job outcome; returns the record that was written."""
        entry = {
            "ts": time.time(),
            "v": 1,
            "record": "job",
            "job_id": result.job_id,
            "case": result.case,
            "planner": result.planner,
            "label": result.label,
            "status": result.status,
            "writing_time": result.writing_time,
            "num_selected": result.num_selected,
            "runtime_seconds": result.runtime_seconds,
            "wall_seconds": result.wall_seconds,
            "cache_hit": result.cache_hit,
            "worker_pid": result.worker_pid,
            "attempts": result.attempts,
            "error": result.error,
            # Planner-specific counters (LP iteration solve times, annealing
            # moves, ...) ride along so manifests carry the full picture.
            "extra": dict(result.extra),
        }
        return self._write(entry, extra)

    def summary(self) -> dict:
        return summarize_manifest(self.records)


def read_manifest(path: str | Path) -> list[dict]:
    """Load a JSONL manifest written by :class:`Telemetry`.

    Tolerant of foreign content: a line that is not a JSON object (corrupt
    tail of a crashed run, an unrelated log line) is skipped rather than
    failing the whole read.  Record kinds this version does not know keep
    their dicts verbatim — consumers filter on ``"record"`` themselves.
    """
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def summarize_manifest(records: Iterable[Mapping]) -> dict:
    """Aggregate counters over manifest records (job records only).

    Filters on the ``record`` kind (absent means ``"job"``, the v0 shape)
    *and* the presence of ``status``, so unknown record kinds introduced by
    later schema versions — or event/metrics records — can never skew the
    job counters.
    """
    records = [
        r
        for r in records
        if r.get("record", "job") == "job" and "status" in r
    ]
    statuses: dict[str, int] = {}
    hits = 0
    wall = 0.0
    for record in records:
        statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        hits += bool(record.get("cache_hit"))
        wall += float(record.get("wall_seconds", 0.0))
    total = len(records)
    return {
        "jobs": total,
        "ok": statuses.get("ok", 0),
        "errors": statuses.get("error", 0),
        "timeouts": statuses.get("timeout", 0),
        "cancelled": statuses.get("cancelled", 0),
        "quarantined": statuses.get("quarantined", 0),
        "cache_hits": hits,
        "cache_misses": total - hits,
        "cache_hit_rate": (hits / total) if total else 0.0,
        "total_wall_seconds": wall,
    }
