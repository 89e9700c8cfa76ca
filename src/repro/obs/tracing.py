"""Hierarchical run tracing over the :class:`~repro.events.PlanEvent` stream.

A *span* is one timed region of a run — a batch, a pool dispatch, a job, a
planner stage, an LP solve.  :func:`span` opens one as a context manager;
on exit it emits a ``span`` event (``span_id`` / ``parent_id`` / ``name`` /
``seconds`` / ``pid`` plus free-form attributes) through the normal emitter,
so spans cost nothing when no sink is installed and ride every transport
events already use — the in-process :func:`~repro.events.emitting` scopes
and the cross-process :class:`~repro.runtime.pool.EventRelay`.

Parentage is a thread-local stack: nested ``span()`` blocks in one thread
parent naturally.  Spans emitted in a *worker* process arrive in the parent
with no in-process parent; :class:`TraceCollector` re-parents those foreign
roots on the consumer side — by ``job_id`` when a parent-side dispatch span
declared the jobs it was waiting on, under the single local root otherwise,
or under a synthetic root as a last resort.  Span ids embed the emitting
pid (``"<pid>-<counter>"``), so ids never collide across the relay and the
collector can tell local from foreign spans without extra bookkeeping.

Bit-identity: opening a span reads the monotonic clock and (only when
events are enabled) a process-local counter — it never touches a planner's
RNG, so traced runs produce byte-identical plans.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.events import PlanEvent, emit, events_enabled

__all__ = [
    "Span",
    "span",
    "record_span",
    "current_span_id",
    "TraceCollector",
]

_IDS = itertools.count(1)


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.ids: list[str] = []


_STACK = _SpanStack()


def current_span_id() -> str | None:
    """The id of the innermost open span in this thread, or None."""
    return _STACK.ids[-1] if _STACK.ids else None


def _next_id() -> str:
    return f"{os.getpid()}-{next(_IDS)}"


class span:
    """Context manager timing one region and emitting a ``span`` event.

    When no event sink is installed the whole context is a cheap no-op (two
    ``events_enabled()`` checks); otherwise the event is emitted on exit so
    its ``seconds`` is final.  Attribute values must be JSON-able.
    """

    __slots__ = ("name", "attrs", "span_id", "_begin")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id: str | None = None
        self._begin = 0.0

    def __enter__(self) -> "span":
        if events_enabled():
            self.span_id = _next_id()
            _STACK.ids.append(self.span_id)
            self._begin = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span_id is None:
            return
        seconds = time.perf_counter() - self._begin
        if _STACK.ids and _STACK.ids[-1] == self.span_id:
            _STACK.ids.pop()
        parent = current_span_id()
        emit(
            "span",
            name=self.name,
            span_id=self.span_id,
            parent_id=parent,
            seconds=seconds,
            pid=os.getpid(),
            **self.attrs,
        )
        self.span_id = None


def record_span(name: str, seconds: float, **attrs) -> None:
    """Emit a leaf span for a region that was timed externally.

    For call sites that already measure their own duration (LP solves, stage
    timers): records a child of the current open span without pushing onto
    the stack.  No-op when no sink is installed.
    """
    if not events_enabled():
        return
    emit(
        "span",
        name=name,
        span_id=_next_id(),
        parent_id=current_span_id(),
        seconds=float(seconds),
        pid=os.getpid(),
        **attrs,
    )


@dataclass
class Span:
    """One node of an assembled trace tree."""

    name: str
    span_id: str
    parent_id: str | None
    seconds: float
    pid: int
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def child_seconds(self) -> float:
        return sum(c.seconds for c in self.children)

    @property
    def self_seconds(self) -> float:
        """Time not covered by child spans (clamped at zero)."""
        return max(0.0, self.seconds - self.child_seconds)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs depth-first, pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "seconds": self.seconds,
            "pid": self.pid,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


_CORE_KEYS = frozenset({"name", "span_id", "parent_id", "seconds", "pid"})


class TraceCollector:
    """An event sink that assembles ``span`` events into a trace tree.

    Usable directly as a sink (``emitting(collector)`` / ``on_event=collector``
    — non-span events are ignored), or fed after the fact from recorded event
    dicts via :meth:`add_event_dict`.  Duplicate span ids are collapsed
    (last write wins), so the same event arriving through two nested scopes
    is harmless.
    """

    def __init__(self) -> None:
        self._spans: dict[str, Span] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self.pid = os.getpid()

    def __call__(self, event: PlanEvent) -> None:
        if event.type != "span":
            return
        payload = dict(event.payload)
        span_id = str(payload.get("span_id", ""))
        if not span_id:
            return
        node = Span(
            name=str(payload.get("name", "?")),
            span_id=span_id,
            parent_id=payload.get("parent_id"),
            seconds=float(payload.get("seconds", 0.0)),
            pid=int(payload.get("pid", 0)),
            attrs={k: v for k, v in payload.items() if k not in _CORE_KEYS},
        )
        with self._lock:
            if span_id not in self._spans:
                self._order.append(span_id)
            self._spans[span_id] = node

    def add_event_dict(self, record: Mapping) -> None:
        """Feed one recorded event dict (e.g. a manifest ``event`` record)."""
        if record.get("type") == "span":
            self(PlanEvent.from_dict(record))

    def spans(self) -> list[Span]:
        """All collected spans in arrival order (children lists unset)."""
        return [self._spans[sid] for sid in self._order]

    def tree(self, root_name: str = "trace") -> Span:
        """Assemble the trace tree, re-parenting cross-process roots.

        Rules, in order:

        1. A span whose ``parent_id`` resolves to a collected span becomes
           its child (normal in-process nesting — ids are pid-qualified, so
           this also covers worker-internal nesting).
        2. An orphan carrying a ``job_id`` attribute is re-parented under
           the span that declared that job id in its ``job_ids`` attribute
           (the pool's dispatch spans do) — this stitches worker job trees
           into the parent-side dispatch that awaited them.
        3. Remaining orphans attach under the single local-pid root if there
           is exactly one; otherwise everything hangs off a synthetic root
           named ``root_name`` whose duration spans its children.
        """
        with self._lock:
            nodes = {sid: self._spans[sid] for sid in self._order}
        for node in nodes.values():
            node.children = []

        dispatch_of_job: dict[str, Span] = {}
        for node in nodes.values():
            for job_id in node.attrs.get("job_ids") or ():
                dispatch_of_job.setdefault(str(job_id), node)

        roots: list[Span] = []
        for node in nodes.values():
            parent = nodes.get(node.parent_id) if node.parent_id else None
            if parent is None and "job_id" in node.attrs:
                parent = dispatch_of_job.get(str(node.attrs["job_id"]))
                if parent is node:
                    parent = None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)

        if len(roots) == 1:
            return roots[0]
        local_roots = [r for r in roots if r.pid == self.pid]
        if len(local_roots) == 1:
            local = local_roots[0]
            for orphan in roots:
                if orphan is not local:
                    local.children.append(orphan)
            return local
        synthetic = Span(
            name=root_name,
            span_id="synthetic-root",
            parent_id=None,
            seconds=sum(r.seconds for r in roots),
            pid=self.pid,
            children=roots,
        )
        return synthetic
