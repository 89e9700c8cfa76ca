"""The one-call planning façade: ``repro.plan(...)``.

The CLI ``plan`` verb, the figure reproductions and the examples call it:
it builds a :class:`~repro.runtime.jobs.PlanJob`, runs it through the shared
execution path, and returns a :class:`~repro.runtime.jobs.JobResult`.

>>> import repro
>>> result = repro.plan("1T-1", planner="eblow", scale=1.0)
>>> result.ok
True

Events emitted by the planner during the run (LP solves, annealing
temperature steps, incumbent improvements, ...) are streamed to the
``on_event`` callback and captured on ``result.events``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.errors import ReproError, ValidationError
from repro.events import EventSink, PlanEvent, emitting, guarded_sink

if TYPE_CHECKING:
    from repro.runtime.jobs import JobResult

__all__ = ["plan", "PlanningError"]


class PlanningError(ReproError):
    """A façade planning call failed (carries the failed :class:`JobResult`).

    Derives from the neutral :class:`~repro.errors.ReproError`, not
    :class:`~repro.errors.ValidationError`: a planner timeout or solver
    crash must not be swallowed by handlers written for bad input.
    """

    def __init__(self, message: str, result: "JobResult | None" = None) -> None:
        super().__init__(message)
        self.result = result


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
    **extra_options,
) -> "JobResult":
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
        Planner options, validated against the planner's declared options
        before anything runs (``repro.plan(inst, "eblow-2d", seed=3)``).
    timeout:
        Wall-clock bound in seconds for the run.
    store:
        Optional :class:`~repro.runtime.store.ResultStore`; hits skip the
        planner entirely, fresh ``ok`` results are persisted.
    check:
        When true (the default) a failed run raises :class:`PlanningError`
        (with ``.result`` attached); when false it comes back as a
        ``status="error"`` / ``"timeout"`` result.
    """
    from repro.model import OSPInstance
    from repro.runtime.jobs import PlanJob, PlannerSpec, execute_job

    merged = dict(options or {})
    for key, value in extra_options.items():
        if key in merged:
            raise ValidationError(f"option {key!r} given both in options= and as keyword")
        merged[key] = value
    spec = PlannerSpec(planner, merged)

    if isinstance(instance, OSPInstance):
        if scale is not None:
            raise ValidationError(
                "scale= only applies to benchmark-case names; an OSPInstance "
                "is planned as-is (rebuild it at the scale you want)"
            )
        job = PlanJob(spec=spec, instance=instance, timeout=timeout, label=label)
    elif isinstance(instance, str):
        job = PlanJob(spec=spec, case=instance, scale=scale, timeout=timeout, label=label)
    else:
        raise ValidationError(
            f"plan() expects an OSPInstance or a benchmark-case name, got {type(instance).__name__}"
        )
    job.validate()

    result = store.get(job) if store is not None else None
    if result is None:
        # The user callback is guarded separately from collection: a sink
        # that raises is dropped (the events.py contract), but the captured
        # stream on the result must stay complete.
        events: list[PlanEvent] = []
        callback = guarded_sink(on_event)

        def _sink(event: PlanEvent) -> None:
            events.append(event)
            if callback is not None:
                callback(event)

        with emitting(_sink):
            result = execute_job(job)
        result.events = events
        if store is not None and result.ok:
            store.put(job, result)
    if check and not result.ok:
        raise PlanningError(
            f"planner {planner!r} on {result.case!r} {result.status}: {result.error}",
            result=result,
        )
    return result
