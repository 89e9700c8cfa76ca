"""``repro.api`` — the public planning API.

One façade, one event protocol, one planner registry:

* :func:`plan` — the one-call entry point: a
  :class:`~repro.runtime.jobs.PlanJob` built, validated and run, a
  :class:`~repro.runtime.jobs.JobResult` returned (:class:`PlanningError`
  when the run fails),
* :class:`PlanEvent` + :func:`emitting` — the streaming progress protocol
  (see :mod:`repro.events`),
* :class:`PlannerHandle` + :func:`register` — the planner registry: one
  handle per planner, declaring its kind, its options and the events it
  emits.

>>> import repro
>>> result = repro.plan("1T-1", planner="greedy-1d", scale=1.0)
>>> result.ok and result.num_selected > 0
True
"""

from repro.api.facade import PlanningError, plan
from repro.api.registry import (
    OptionField,
    Planner,
    PlannerHandle,
    describe_planners,
    get_handle,
    iter_handles,
    list_planners,
    register,
    resolve_planner,
)

# Importing the catalogue registers every first-party planner handle.
from repro.api import planners as _planners  # noqa: F401  (self-registration)
from repro.events import EVENT_TYPES, EventSink, PlanEvent, emit, emitting, events_enabled

__all__ = [
    # façade
    "plan",
    "PlanningError",
    # events
    "PlanEvent",
    "EventSink",
    "EVENT_TYPES",
    "emit",
    "emitting",
    "events_enabled",
    # registry
    "Planner",
    "PlannerHandle",
    "OptionField",
    "register",
    "resolve_planner",
    "get_handle",
    "iter_handles",
    "list_planners",
    "describe_planners",
]
