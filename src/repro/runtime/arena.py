"""Shared-memory instance arena for zero-copy batch dispatch.

Submitting an inline-instance :class:`~repro.runtime.jobs.PlanJob` to a
worker pool used to pickle the whole instance — characters, regions, *and*
the cached ``(n, P)`` kernel arrays — once per job.  A cases × planners grid
therefore shipped each instance's bulk data as many times as it had planner
columns.  The arena removes that copy: the parent exports every distinct
instance **once** into a :mod:`multiprocessing.shared_memory` segment, and
jobs cross the process boundary as thin descriptors carrying only the
segment name plus the instance digest.  Workers attach lazily, rebuild the
instance from the canonical JSON stored in the segment, and adopt read-only
NumPy views of the kernel arrays straight out of shared memory — the bulk
bytes are mapped, never copied, and the per-worker attachment is cached by
digest so repeated planners over the same instance skip deserialization
entirely.

Segment layout (one segment per instance digest)::

    [0:8]    little-endian uint64 — byte length H of the header JSON
    [8:8+H]  header JSON: array table (name, dtype, shape, offset, nbytes)
             and the offset/length of the instance JSON
    ...      the kernel arrays, 64-byte aligned, back to back
    ...      canonical instance JSON (utf-8)

Lifecycle: the parent-side :class:`InstanceArena` owns its segments and
unlinks them all in :meth:`close` (idempotent; also wired to ``atexit`` so
an exception path cannot orphan ``/dev/shm`` entries — and a hard parent
kill is covered by the stdlib resource tracker, which unlinks registered
segments when the process tree dies).  Workers only ever attach; their
mappings stay valid until process exit even after the parent unlinks.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.io.serialization import canonical_json
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (model is light,
    from repro.model import OSPInstance  # but keep runtime deps one-way)

__all__ = ["ArenaRef", "InstanceArena", "attached_instance", "instance_digest"]

_ARENA_EXPORTS = obs_metrics.declare_counter(
    "arena_exports_total", "Instances exported into shared-memory segments"
)
_ARENA_BYTES = obs_metrics.declare_counter(
    "arena_bytes_total", "Shared-memory bytes written by arena exports"
)
_ARENA_SEGMENTS = obs_metrics.declare_gauge(
    "arena_segments", "Live shared-memory segments in the instance arena"
)
_ARENA_RELEASES = obs_metrics.declare_counter(
    "arena_releases_total", "Arena segments unlinked (trim evictions included)"
)
_ARENA_ATTACHES = obs_metrics.declare_counter(
    "arena_attaches_total", "Worker-side instance attachments", ("result",)
)

#: Cache keys exported into a segment, in layout order.  These are exactly
#: the arrays :meth:`OSPInstance._array_cache` builds (and
#: :class:`~repro.core.kernels.InstanceKernels` wraps), so an attached
#: instance behaves identically to one that computed its own cache.
ARENA_ARRAYS = ("repeats", "shot_delta", "reductions", "vsb_times")

_ALIGN = 64


def instance_digest(instance: "OSPInstance") -> str:
    """Content digest of an instance — equal to ``PlanJob.instance_hash``
    for inline-instance jobs, so arena keys and store keys agree."""
    payload = canonical_json(instance.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class ArenaRef:
    """Picklable pointer to one exported instance (what descriptors carry)."""

    segment: str
    digest: str


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class InstanceArena:
    """Parent-side registry of shared-memory instance segments.

    ``export`` is idempotent per digest: a grid with many planner columns
    ships each instance's bulk data at most once.  Segments live until
    :meth:`close` (pool shutdown), so a warm pool reused across batches keeps
    its exports hot — bounded by ``capacity``: every pool submit calls
    :meth:`trim` to evict the oldest segments beyond it (a long-lived
    serving pool over a stream of distinct instances must not grow
    ``/dev/shm`` without bound).  Eviction is FIFO and never touches
    digests the caller marks as in flight.
    """

    #: Default maximum resident segments per arena (distinct instances).
    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = self.DEFAULT_CAPACITY if capacity is None else max(1, capacity)
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, ArenaRef] = {}
        self._owner_pid = os.getpid()
        # Belt and braces for crash paths: close leftover segments at
        # interpreter exit.  The finalizer holds only weak state, so a
        # normally closed arena costs nothing.  The owner pid gates the
        # unlink: forked pool workers inherit this object, and their exit
        # must not tear down segments the parent still serves.
        self._finalizer = weakref.finalize(
            self, _close_segments, self._segments, self._owner_pid
        )

    # ------------------------------------------------------------------ #
    # Export (parent side)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, digest: str) -> bool:
        return digest in self._segments

    def export(self, instance: "OSPInstance", digest: str | None = None) -> ArenaRef:
        """Export ``instance`` (idempotent) and return its :class:`ArenaRef`."""
        digest = digest or instance_digest(instance)
        ref = self._refs.get(digest)
        if ref is not None:
            return ref

        arrays = {name: np.ascontiguousarray(arr) for name, arr in zip(
            ARENA_ARRAYS,
            (
                instance.repeat_matrix_array(),
                instance.shot_delta_array(),
                instance.reduction_matrix_array(),
                instance.vsb_times_array(),
            ),
        )}
        instance_json = canonical_json(instance.to_dict()).encode("utf-8")

        table: dict[str, dict] = {}
        # Header size is not known until the table is final; lay out the
        # payload at offset 0 first, then shift by the header length.
        offset = 0
        for name, arr in arrays.items():
            offset = _aligned(offset)
            table[name] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
            offset += arr.nbytes
        offset = _aligned(offset)
        header = {
            "digest": digest,
            "arrays": table,
            "instance": {"offset": offset, "nbytes": len(instance_json)},
        }
        payload_size = offset + len(instance_json)

        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        base = _aligned(8 + len(header_bytes))
        name = f"eblow-{digest[:12]}-{os.getpid():x}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=base + payload_size
        )
        try:
            buf = segment.buf
            buf[0:8] = len(header_bytes).to_bytes(8, "little")
            buf[8 : 8 + len(header_bytes)] = header_bytes
            for arr_name, arr in arrays.items():
                entry = table[arr_name]
                start = base + entry["offset"]
                view = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=buf, offset=start
                )
                view[...] = arr
            start = base + header["instance"]["offset"]
            buf[start : start + len(instance_json)] = instance_json
        except BaseException:
            segment.close()
            segment.unlink()
            raise

        ref = ArenaRef(segment=name, digest=digest)
        self._segments[digest] = segment
        self._refs[digest] = ref
        _ARENA_EXPORTS.inc()
        _ARENA_BYTES.inc(segment.size)
        _ARENA_SEGMENTS.set(len(self._segments))
        return ref

    def trim(self, keep: "set[str] | frozenset[str]" = frozenset()) -> int:
        """Evict oldest segments beyond :attr:`capacity`; never evicts ``keep``.

        ``keep`` must name every digest a descriptor still in flight refers
        to.  A re-export after eviction simply creates a fresh segment.
        Returns the number of segments released.
        """
        released = 0
        if len(self._segments) <= self.capacity:
            return released
        for digest in list(self._segments):
            if len(self._segments) <= self.capacity:
                break
            if digest in keep:
                continue
            self.release(digest)
            released += 1
        return released

    def release(self, digest: str) -> bool:
        """Unlink one segment (True when it existed)."""
        segment = self._segments.pop(digest, None)
        self._refs.pop(digest, None)
        if segment is None:
            return False
        _close_segment(segment, unlink=os.getpid() == self._owner_pid)
        _ARENA_RELEASES.inc()
        _ARENA_SEGMENTS.set(len(self._segments))
        return True

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        _close_segments(self._segments, self._owner_pid)
        self._refs.clear()
        _ARENA_SEGMENTS.set(0)

    def __enter__(self) -> "InstanceArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _close_segment(segment: shared_memory.SharedMemory, unlink: bool = True) -> None:
    try:
        segment.close()
        if unlink:
            segment.unlink()
    except (BufferError, FileNotFoundError, OSError):  # already gone / still viewed
        pass


def _close_segments(segments: dict, owner_pid: int) -> None:
    unlink = os.getpid() == owner_pid
    for digest in list(segments):
        _close_segment(segments.pop(digest), unlink=unlink)


# --------------------------------------------------------------------------- #
# Attach (worker side)
# --------------------------------------------------------------------------- #

#: digest -> rebuilt instance (with adopted shared-memory array cache).  The
#: cache key includes the digest only — a re-exported segment for the same
#: instance content is interchangeable with the original attachment.
#: Bounded FIFO: a worker caches at most this many attachments; keeping an
#: attachment maps the segment's memory even after the parent unlinks it,
#: so an unbounded cache would defeat the parent-side `trim`.
_ATTACHED: dict[str, "OSPInstance"] = {}
#: digest -> open attachment, kept alive as long as its arrays are.
_ATTACHED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_ATTACHED_MAX = 64


def _evict_oldest_attachment() -> None:
    digest = next(iter(_ATTACHED))
    _ATTACHED.pop(digest, None)
    segment = _ATTACHED_SEGMENTS.pop(digest, None)
    if segment is not None:
        try:
            segment.close()
        except (BufferError, OSError):
            # An array view is still alive somewhere; the mapping is
            # released when the last reference drops (or at process exit).
            pass


def attached_instance(ref: ArenaRef) -> "OSPInstance":
    """The instance behind ``ref``, attached zero-copy and cached per process.

    The first call per digest maps the segment, parses the embedded canonical
    JSON, and installs read-only array views over the shared buffer; later
    calls (and later jobs on the same worker) return the cached instance, so
    repeated planners over one case skip deserialization entirely.
    """
    cached = _ATTACHED.get(ref.digest)
    if cached is not None:
        _ARENA_ATTACHES.inc(result="cached")
        return cached
    _ARENA_ATTACHES.inc(result="new")

    from repro.model import OSPInstance

    segment = shared_memory.SharedMemory(name=ref.segment)
    try:
        buf = segment.buf
        header_len = int.from_bytes(bytes(buf[0:8]), "little")
        header = json.loads(bytes(buf[8 : 8 + header_len]).decode("utf-8"))
        if header.get("digest") != ref.digest:
            raise ValueError(
                f"arena segment {ref.segment!r} holds digest "
                f"{header.get('digest')!r}, expected {ref.digest!r}"
            )
        base = _aligned(8 + header_len)
        entry = header["instance"]
        start = base + entry["offset"]
        instance_json = bytes(buf[start : start + entry["nbytes"]]).decode("utf-8")
        instance = OSPInstance.from_dict(json.loads(instance_json))

        arrays: dict[str, np.ndarray] = {}
        for name in ARENA_ARRAYS:
            meta = header["arrays"][name]
            view = np.ndarray(
                tuple(meta["shape"]),
                dtype=np.dtype(meta["dtype"]),
                buffer=buf,
                offset=base + meta["offset"],
            )
            view.setflags(write=False)
            arrays[name] = view
        instance.adopt_array_cache(arrays)
    except BaseException:
        segment.close()
        raise

    while len(_ATTACHED) >= _ATTACHED_MAX:
        _evict_oldest_attachment()
    _ATTACHED[ref.digest] = instance
    _ATTACHED_SEGMENTS[ref.digest] = segment
    return instance


def _reset_attachments() -> None:
    """Drop this process's attachment cache (tests / fork hygiene)."""
    _ATTACHED.clear()
    for segment in _ATTACHED_SEGMENTS.values():
        try:
            segment.close()
        except BufferError:
            # An array view still references the buffer; the mapping is
            # released when the process exits instead.
            pass
        except OSError:
            pass
    _ATTACHED_SEGMENTS.clear()


atexit.register(_reset_attachments)
