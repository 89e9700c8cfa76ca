"""The one-call planning façade: ``repro.plan(...)``.

Every entry point in the repository — the CLI verbs, the paper-table
reproductions, batch serving, portfolio racing — is a thin client of this
module: build a :class:`~repro.api.lifecycle.PlanRequest`, run it through
the shared execution path, get a :class:`~repro.api.lifecycle.PlanResult`.

>>> import repro
>>> result = repro.plan("1T-1", planner="eblow", scale=1.0)
>>> result.ok
True

Events emitted by the planner during the run (LP solves, annealing
temperature steps, incumbent improvements, ...) are streamed to the
``on_event`` callback and captured on ``result.events``.
"""

from __future__ import annotations

from typing import Mapping

from repro.api.lifecycle import PlanningError, PlanRequest, PlanResult
from repro.errors import ValidationError
from repro.events import EventSink, PlanEvent, emitting, guarded_sink

__all__ = ["plan", "submit", "planner_pool"]


def planner_pool(max_workers: int, chunksize: int | None = None):
    """A warm worker pool for serving many plans without per-batch spawn.

    The returned :class:`~repro.runtime.pool.PlannerPool` keeps its worker
    processes — and their per-instance caches — alive across successive
    batches (``run_jobs(..., scheduler=LocalScheduler(pool=pool))``) and
    :func:`repro.runtime.run_portfolio` calls (``pool=pool``).  Inline
    instances ship through the pool's shared-memory arena exactly once, and
    jobs cross the process boundary as thin descriptors in chunks of
    ``chunksize``.  The pool runs each job once; retrying belongs to a
    supervised scheduler (``LocalScheduler(pool=pool, supervisor=...)``).
    Use as a context manager (or call ``close()``) so workers and arena
    segments are reclaimed::

        import repro
        from repro.runtime import LocalScheduler, grid_jobs, run_jobs

        with repro.planner_pool(max_workers=4) as pool:
            warm = LocalScheduler(pool=pool)
            first = run_jobs(grid_jobs(["1M-1", "1M-2"], {"e": "eblow-1d"}), scheduler=warm)
            again = run_jobs(grid_jobs(["1M-1"], {"g": "greedy-1d"}), scheduler=warm)
    """
    from repro.runtime.pool import PlannerPool

    return PlannerPool(max_workers=max_workers, chunksize=chunksize)


def plan(
    instance,
    planner: str = "eblow",
    *,
    on_event: EventSink | None = None,
    options: Mapping[str, object] | None = None,
    scale: float | None = None,
    timeout: float | None = None,
    label: str | None = None,
    store=None,
    check: bool = True,
    collect_events: bool = True,
    **extra_options,
) -> PlanResult:
    """Plan ``instance`` with a registered planner and return the result.

    Parameters
    ----------
    instance:
        An :class:`~repro.model.OSPInstance`, or the name of a benchmark
        case (resolved with ``scale``, defaulting to the repo-wide scale).
    planner:
        Registry name; bare family names (``"eblow"``) dispatch on the
        instance kind.  See ``repro.api.list_planners()``.
    on_event:
        Callback receiving each :class:`~repro.events.PlanEvent` live.
    options / ``**extra_options``:
        Planner options, validated against the planner's declared schema
        (``repro.plan(inst, "eblow-2d", seed=3)``).
    timeout:
        Wall-clock bound in seconds for the run.
    store:
        Optional :class:`~repro.runtime.store.ResultStore`; hits skip the
        planner entirely, fresh ``ok`` results are persisted.
    check:
        When true (the default) a failed run raises :class:`PlanningError`
        (with ``.result`` attached) instead of returning silently.
    collect_events:
        Capture the event stream on ``result.events`` (disable for
        long-running service loops that only want the live callback).
    """
    merged = dict(options or {})
    for key, value in extra_options.items():
        if key in merged:
            raise ValidationError(f"option {key!r} given both in options= and as keyword")
        merged[key] = value

    from repro.model import OSPInstance

    if isinstance(instance, OSPInstance):
        if scale is not None:
            raise ValidationError(
                "scale= only applies to benchmark-case names; an OSPInstance "
                "is planned as-is (rebuild it at the scale you want)"
            )
        request = PlanRequest(
            planner=planner, options=merged, instance=instance,
            timeout=timeout, label=label,
        )
    elif isinstance(instance, str):
        if scale is None:
            from repro.workloads import default_scale

            scale = default_scale()
        request = PlanRequest(
            planner=planner, options=merged, case=instance, scale=scale,
            timeout=timeout, label=label,
        )
    else:
        raise ValidationError(
            f"plan() expects an OSPInstance or a benchmark-case name, got {type(instance).__name__}"
        )

    result = submit(
        request, on_event=on_event, store=store, collect_events=collect_events
    )
    if check and not result.ok:
        raise PlanningError(
            f"planner {request.planner!r} on {result.case!r} {result.status}: {result.error}",
            result=result,
        )
    return result


def _case_kind(case: str) -> str | None:
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


def submit(
    request: PlanRequest,
    on_event: EventSink | None = None,
    store=None,
    collect_events: bool = True,
) -> PlanResult:
    """Run one :class:`PlanRequest` in the current process.

    This is the lifecycle's single execution path: options are validated
    against the planner's schema up front, store hits short-circuit the
    planner, and the event stream is attached to the returned
    :class:`PlanResult`.  Unlike :func:`plan` it never raises for planner
    failures — they come back as ``status="error"`` results.
    """
    from repro.runtime.jobs import execute_job

    # Fail fast with a raised ValidationError (execute_job would swallow it
    # into a status="error" result).  PlannerSpec.build validates again at
    # build time for non-façade callers; the options dicts are tiny, so the
    # duplicate check is noise-level.
    request.validated()

    job = request.to_job()
    if store is not None:
        cached = store.get(job)
        if cached is not None:
            return PlanResult.from_job_result(cached, timeout=request.timeout)

    events: list[PlanEvent] = []

    if not collect_events and on_event is None:
        # Nobody is listening: keep emission a true no-op on the hot paths.
        job_result = execute_job(job)
    else:
        # The user callback is guarded separately from collection: a sink
        # that raises is dropped (the events.py contract), but the captured
        # stream on the result must stay complete.
        callback = guarded_sink(on_event)

        def _sink(event: PlanEvent) -> None:
            if collect_events:
                events.append(event)
            if callback is not None:
                callback(event)

        with emitting(_sink):
            job_result = execute_job(job)

    if store is not None and job_result.ok:
        store.put(job, job_result)
    return PlanResult.from_job_result(job_result, events=events, timeout=request.timeout)
