"""Declarative planning jobs, their results, and the one execution path.

A :class:`PlanJob` is a self-contained, picklable description of one planner
run: *what* to plan (a named benchmark case + scale, or an inline
:class:`~repro.model.OSPInstance`) and *how* (a :class:`PlannerSpec` naming a
registered planner plus JSON-able options, an optional wall-clock timeout).
It is the request of every layer: ``repro.plan``, the batch runtime, the
serve protocol (``to_dict`` / ``from_dict``) and the comparison tables.

Because the description is pure data, it has a deterministic identity:
``job_id`` is a content hash over the canonical-JSON encoding of the job
(see :func:`repro.io.canonical_json`).  The same hash split into its
``instance_hash`` / ``config_hash`` halves keys the on-disk result store
(:mod:`repro.runtime.store`), so identical work is only ever done once.

:func:`execute_job` is the single execution path shared by the serial CLI,
the process pool, and portfolio racing — it resolves the instance, builds the
planner from the registry, enforces the timeout (SIGALRM-based, so a stuck
planner is interrupted inside the worker instead of orphaning it), and
condenses the plan into a :class:`JobResult` — the one record of a run's
outcome, whichever layer ran it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.api import planners as _catalogue  # noqa: F401  (self-registration)
from repro.api.registry import get_handle
from repro.errors import ValidationError
from repro.events import PlanEvent, emit
from repro.io.serialization import canonical_json
from repro.model import OSPInstance, StencilPlan, evaluate_plan
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime import faults

__all__ = [
    "PlannerSpec",
    "PlanJob",
    "JobResult",
    "JobTimeoutError",
    "JobCancelledError",
    "execute_job",
    "request_cancel",
    "cancel_pending",
    "summarize_instance",
]


class JobTimeoutError(BaseException):
    """Raised inside a worker when a job exceeds its wall-clock timeout.

    A :class:`BaseException`, as :class:`KeyboardInterrupt` is: its signal
    handler raises it wherever the job happens to be, an event sink
    included, and no ``except Exception`` on the way (the emitter's broken
    sink guard, a planner's fallback) may swallow it.
    """


class JobCancelledError(BaseException):
    """Raised inside a worker when the supervisor soft-cancels its job.

    A :class:`BaseException` for the same reason as :class:`JobTimeoutError`.
    """


# Cooperative-cancellation state of *this* process (a pool worker, usually).
# ``job`` is the job currently inside :func:`execute_job`; ``term_ok`` is set
# once a cancel was requested and means a follow-up ``SIGTERM`` may take the
# process down even though it is not orphaned (see ``pool._worker_init``).
_CANCEL = {"job": None, "term_ok": False}


def request_cancel(signum=None, frame=None):
    """Soft-cancel the running job (the pool workers' ``SIGUSR1`` handler).

    If a job is executing, raises :class:`JobCancelledError` *in it* — the
    job resolves as ``status="cancelled"`` and the worker stays alive and
    reusable.  Outside a job it only records that cancellation was requested
    (``cancel_pending``), which arms the escalation path: a worker that never
    reaches Python signal delivery (wedged in a native solve) will be taken
    down by the supervisor's follow-up ``SIGTERM``/``SIGKILL``.
    """
    _CANCEL["term_ok"] = True
    if _CANCEL["job"] is not None:
        raise JobCancelledError("job cancelled by supervisor request")


def cancel_pending() -> bool:
    """Whether a cancel was requested and not yet absorbed by a job."""
    return bool(_CANCEL["term_ok"])


# --------------------------------------------------------------------------- #
# Specs and jobs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlannerSpec:
    """A planner choice as pure data: registry name + JSON-able options."""

    planner: str
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def build(self, kind: str | None = None):
        """Instantiate the planner (dispatching bare names on ``kind``).

        Options are validated against the planner's declared options (see
        :mod:`repro.api.registry`) before the builder runs.
        """
        return get_handle(self.planner, kind).build(dict(self.options))

    def to_dict(self) -> dict:
        return {"planner": self.planner, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlannerSpec":
        return cls(planner=data["planner"], options=dict(data.get("options", {})))


@dataclass(frozen=True)
class PlanJob:
    """One unit of planning work: an instance reference plus a planner spec.

    Exactly one of ``case`` (a named benchmark case, resolved with ``scale``
    through :func:`repro.workloads.build_instance`) or ``instance`` (an inline
    :class:`OSPInstance`) must be given.  ``timeout`` bounds the wall-clock
    seconds of one execution attempt; it is an infrastructure knob and is
    deliberately *excluded* from the job identity, so cached results survive
    timeout-policy changes.

    The content hashes are cached on the job once computed, so a pickled job
    carries them: a pool worker plans under the parent's ``job_id`` and
    store keys without hashing the instance again.
    """

    spec: PlannerSpec
    case: str | None = None
    scale: float | None = None
    instance: OSPInstance | None = None
    timeout: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.case is None) == (self.instance is None):
            raise ValidationError("PlanJob needs exactly one of case= or instance=")
        if self.case is not None and self.scale is None:
            from repro.workloads import default_scale

            object.__setattr__(self, "scale", default_scale())

    @property
    def display_label(self) -> str:
        return self.label or self.spec.planner

    def validate(self) -> "PlanJob":
        """Check the options against the planner's declared ones; return the job.

        Raises :class:`ValidationError` before anything runs (``execute_job``
        would turn it into a ``status="error"`` result instead).
        """
        kind = self.instance.kind if self.instance is not None else case_kind(self.case)
        get_handle(self.spec.planner, kind).validate_options(self.spec.options)
        return self

    def to_dict(self) -> dict:
        """The request as JSON-able data (the serve protocol's ``request``)."""
        data = {**self.spec.to_dict(), "timeout": self.timeout, "label": self.label}
        if self.case is not None:
            data["case"] = self.case
            data["scale"] = self.scale
        else:
            data["instance"] = self.instance.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanJob":
        instance = data.get("instance")
        return cls(
            spec=PlannerSpec.from_dict(data),
            case=data.get("case"),
            scale=data.get("scale"),
            instance=None if instance is None else OSPInstance.from_dict(instance),
            timeout=data.get("timeout"),
            label=data.get("label"),
        )

    @property
    def case_name(self) -> str:
        return self.case if self.case is not None else self.instance.name

    def instance_payload(self) -> dict:
        """JSON-able identity of the planning input."""
        if self.case is not None:
            return {"case": self.case, "scale": self.scale}
        return self.instance.to_dict()

    @cached_property
    def instance_hash(self) -> str:
        return _digest(self.instance_payload())

    @cached_property
    def config_hash(self) -> str:
        return _digest(self.spec.to_dict())

    @cached_property
    def job_id(self) -> str:
        return _digest({"instance": self.instance_hash, "config": self.config_hash})[:16]

    def resolve_instance(self) -> OSPInstance:
        """Materialise the instance (builds named cases deterministically).

        Named cases are memoised per process: instances are immutable and
        case generation is deterministic, so a warm pool worker (or the
        inline path) that plans the same case under several planner columns
        builds it — and its kernel-array cache — once instead of per job.
        """
        if self.instance is not None:
            return self.instance
        return _cached_case_instance(self.case, float(self.scale))


def case_kind(case: str) -> str | None:
    """The planner kind (1D/2D) of a named benchmark case, if known.

    The tiny suites carry their own kind tags (``1T`` / ``2T``); they map to
    the planner kinds.  Unknown case names return ``None`` — the resulting
    "unknown planner" error from bare-name resolution is the right message,
    and a fully-qualified planner name still resolves fine.
    """
    from repro.workloads import ALL_CASES

    entry = ALL_CASES.get(case)
    if entry is None:
        return None
    return {"1T": "1D", "2T": "2D"}.get(entry.kind, entry.kind)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: Per-process memo of named-case instances (bounded FIFO).  Keyed by
#: (case, scale); shared by the inline path and warm pool workers.
_CASE_INSTANCES: dict[tuple[str, float], OSPInstance] = {}
_CASE_INSTANCES_MAX = 64


def _cached_case_instance(case: str, scale: float) -> OSPInstance:
    key = (case, scale)
    instance = _CASE_INSTANCES.get(key)
    if instance is None:
        from repro.workloads import build_instance

        instance = build_instance(case, scale)
        while len(_CASE_INSTANCES) >= _CASE_INSTANCES_MAX:
            _CASE_INSTANCES.pop(next(iter(_CASE_INSTANCES)))
        _CASE_INSTANCES[key] = instance
    return instance


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #


@dataclass
class JobResult:
    """Outcome of one :class:`PlanJob` execution (or a store hit).

    The one result record of every layer: the paper's three comparison
    columns (writing time, char#, CPU(s)), execution provenance, the
    serialized plan, and the planner telemetry in ``extra``.  ``to_dict`` is
    the store entry's body and the serve ``result`` frame.
    """

    job_id: str
    case: str
    label: str
    planner: str
    status: str  # "ok" | "error" | "timeout" | "cancelled" | "quarantined"
    writing_time: float = 0.0
    num_selected: int = 0
    runtime_seconds: float = 0.0
    wall_seconds: float = 0.0
    worker_pid: int = 0
    attempts: int = 1
    cache_hit: bool = False
    error: str | None = None
    plan: dict | None = None
    instance_summary: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    # Worker-side metrics snapshot (repro.obs) riding home on the pickle.
    # Deliberately excluded from to_dict/from_dict: it describes one
    # *execution*, not the result — persisting it in the store would replay
    # stale counters into every cache hit.  The pool pops and merges it.
    metrics: dict | None = None
    # The PlanEvent stream ``repro.plan`` captured during the run; excluded
    # from to_dict/from_dict for the same reason as ``metrics``.
    events: list[PlanEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stats(self) -> dict:
        """The planner's full ``plan.stats`` dict (empty when no plan)."""
        if self.plan is None:
            return {}
        return dict(self.plan.get("stats", {}))

    def event_counts(self) -> dict[str, int]:
        """How many events of each type the run emitted."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def trace(self):
        """The run's span tree assembled from the captured event stream.

        Returns a :class:`repro.obs.tracing.Span` (render it with
        :func:`repro.obs.report.render_report`), or ``None`` when the run
        carries no ``span`` events (a store hit, or a result that did not
        come from ``repro.plan``).
        """
        from repro.obs.tracing import TraceCollector

        collector = TraceCollector()
        for event in self.events:
            collector(event)
        if not collector.spans():
            return None
        return collector.tree()

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "case": self.case,
            "label": self.label,
            "planner": self.planner,
            "status": self.status,
            "writing_time": self.writing_time,
            "num_selected": self.num_selected,
            "runtime_seconds": self.runtime_seconds,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "plan": self.plan,
            "instance_summary": dict(self.instance_summary),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobResult":
        return cls(
            job_id=data["job_id"],
            case=data["case"],
            label=data["label"],
            planner=data["planner"],
            status=data["status"],
            writing_time=data.get("writing_time", 0.0),
            num_selected=data.get("num_selected", 0),
            runtime_seconds=data.get("runtime_seconds", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            worker_pid=data.get("worker_pid", 0),
            attempts=data.get("attempts", 1),
            cache_hit=data.get("cache_hit", False),
            error=data.get("error"),
            plan=data.get("plan"),
            instance_summary=dict(data.get("instance_summary", {})),
            extra=dict(data.get("extra", {})),
        )

    def plan_object(self, instance: OSPInstance) -> StencilPlan:
        """Rebuild the stencil plan against its (re-resolved) instance."""
        if self.plan is None:
            raise ValidationError(f"job {self.job_id} carries no plan (status={self.status})")
        return StencilPlan.from_dict(instance, self.plan)


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #

#: The ``plan.stats`` keys a result carries in ``extra`` (planner telemetry
#: beside the paper's three columns: writing time, char#, CPU(s)).
_EXTRA_STATS = (
    "lp_iterations",
    "lp_solve_seconds",
    "stage_seconds",
    "post_swaps",
    "post_insertions",
    "num_clusters",
    "annealing_moves",
    "optimal",
    "ilp_binary_variables",
)

_PLANS = obs_metrics.declare_counter(
    "plans_total", "Planner executions by outcome", ("planner", "status")
)
_PLAN_SECONDS = obs_metrics.declare_histogram(
    "plan_seconds", "Wall seconds per planner execution", ("planner",)
)
_STAGE_SECONDS = obs_metrics.declare_counter(
    "plan_stage_seconds_total",
    "Cumulative wall seconds per planner pipeline stage",
    ("planner", "stage"),
)


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`JobTimeoutError` in the current thread after ``seconds``.

    Uses ``SIGALRM``, so it only arms when running in a process's main thread
    on a POSIX platform — which is exactly where pool workers run their jobs.
    Elsewhere it degrades to no enforcement rather than failing.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _raise_timeout(signum, frame):
        raise JobTimeoutError(f"job exceeded {seconds:.3f}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def summarize_instance(instance: OSPInstance) -> dict:
    """The 5-key instance summary shared by serial and pooled comparisons."""
    return {
        "num_characters": instance.num_characters,
        "num_regions": instance.num_regions,
        "stencil_width": instance.stencil.width,
        "stencil_height": instance.stencil.height,
        "kind": instance.kind,
    }


def execute_job(job: PlanJob, on_event=None) -> JobResult:
    """Run one job to completion in the current process.

    Never raises for planner failures or timeouts — those come back as
    ``status="error"`` / ``status="timeout"`` results, so a pool can report
    them without tearing down sibling jobs.

    The run brackets the planner's own event stream with ``started`` /
    ``finished`` :class:`~repro.events.PlanEvent` records; ``on_event``
    installs an additional sink for the duration of the run (the façade and
    the portfolio's worker-side event relay use this — with no sink anywhere,
    emission is a no-op).
    """
    if on_event is not None:
        from repro.events import emitting

        with emitting(on_event):
            return execute_job(job)

    start = time.perf_counter()
    result = JobResult(
        job_id=job.job_id,
        case=job.case_name,
        label=job.display_label,
        planner=job.spec.planner,
        status="error",
        worker_pid=os.getpid(),
    )
    emit(
        "started",
        planner=job.spec.planner,
        case=job.case_name,
        label=job.display_label,
        job_id=job.job_id,
    )
    with span(
        "job",
        planner=job.spec.planner,
        case=job.case_name,
        label=job.display_label,
        job_id=job.job_id,
    ):
        try:
            _CANCEL["job"] = job
            faults.on_job_start(job)
            instance = job.resolve_instance()
            result.instance_summary = summarize_instance(instance)
            planner = job.spec.build(instance.kind)
            with _deadline(job.timeout):
                plan = planner.plan(instance)
            report = evaluate_plan(plan)
            result.status = "ok"
            result.writing_time = report.total
            result.num_selected = report.num_selected
            result.runtime_seconds = float(plan.stats.get("runtime_seconds", 0.0))
            result.extra = {k: v for k, v in plan.stats.items() if k in _EXTRA_STATS}
            result.plan = plan.to_dict()
        except JobTimeoutError as exc:
            result.status = "timeout"
            result.error = str(exc)
        except JobCancelledError as exc:
            # Cooperative cancel succeeded: the worker is healthy again, so a
            # follow-up SIGTERM must revert to orphan-only semantics.
            _CANCEL["term_ok"] = False
            result.status = "cancelled"
            result.error = str(exc)
        except Exception as exc:  # noqa: BLE001 — report, don't kill the batch
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            _CANCEL["job"] = None
            faults.on_job_end(job)
    result.wall_seconds = time.perf_counter() - start
    _PLANS.inc(planner=result.planner, status=result.status)
    _PLAN_SECONDS.observe(result.wall_seconds, planner=result.planner)
    for stage, seconds in (result.extra.get("stage_seconds") or {}).items():
        _STAGE_SECONDS.inc(float(seconds), planner=result.planner, stage=str(stage))
    emit(
        "finished",
        status=result.status,
        writing_time=result.writing_time,
        num_selected=result.num_selected,
        wall_seconds=result.wall_seconds,
        label=result.label,
    )
    return result
