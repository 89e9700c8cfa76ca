"""Instrumentation must not perturb plans.

Metrics increments happen at run boundaries and spans never touch planner
RNG, so a fully observed run — registry installed, trace collector and
progress sink attached — must produce byte-identical plans to a bare run.
"""

from __future__ import annotations

import json

import pytest

from repro.events import emitting
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import TraceCollector
from repro.runtime import PlanJob, PlannerSpec, execute_job


# Wall-clock measurements differ between any two runs; everything else in
# the plan (placements, selection, writing time, counters) must not.
_VOLATILE = frozenset(
    {"runtime_seconds", "lp_solve_seconds", "stage_seconds", "wall_seconds"}
)


def _strip_volatile(value):
    if isinstance(value, dict):
        return {
            k: _strip_volatile(v) for k, v in value.items() if k not in _VOLATILE
        }
    if isinstance(value, list):
        return [_strip_volatile(v) for v in value]
    return value


def _canonical(result) -> str:
    assert result.ok, f"{result.status}: {result.error}"
    return json.dumps(
        {"plan": _strip_volatile(result.plan), "writing_time": result.writing_time},
        sort_keys=True,
    )


def _run(job: PlanJob, instrumented: bool) -> str:
    if not instrumented:
        return _canonical(execute_job(job))
    collector = TraceCollector()
    with obs_metrics.collecting() as registry:
        with emitting(collector):
            result = execute_job(job, on_event=collector)
    assert collector.spans(), "instrumented run must produce spans"
    assert registry.snapshot()["metrics"], "instrumented run must record metrics"
    return _canonical(result)


@pytest.mark.parametrize(
    "job",
    [
        pytest.param(
            PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=0.5),
            id="eblow-1d",
        ),
        pytest.param(
            PlanJob(spec=PlannerSpec("sa-2d"), case="2T-1", scale=0.4),
            id="sa-2d",
        ),
    ],
)
def test_instrumented_run_is_bit_identical(job):
    bare = _run(job, instrumented=False)
    observed = _run(job, instrumented=True)
    assert observed == bare
