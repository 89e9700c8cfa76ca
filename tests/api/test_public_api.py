"""Public-API snapshot: the exported surface of ``repro`` and ``repro.api``.

These lists are the compatibility contract.  A failure here means the public
surface changed — either restore the symbol or update the snapshot *and* the
docs (``docs/API.md``) deliberately in the same change.
"""

import repro
import repro.api

REPRO_EXPORTS = sorted(
    [
        "Character",
        "Region",
        "StencilSpec",
        "OSPInstance",
        "RowPlacement",
        "Placement2D",
        "StencilPlan",
        "WritingTimeReport",
        "evaluate_plan",
        "region_writing_times",
        "system_writing_time",
        "EBlow1DPlanner",
        "EBlow2DPlanner",
        "generate_1d_instance",
        "generate_2d_instance",
        "plan",
        "PlanEvent",
        "list_planners",
        "__version__",
    ]
)

REPRO_API_EXPORTS = sorted(
    [
        "plan",
        "PlanningError",
        "PlanEvent",
        "EventSink",
        "EVENT_TYPES",
        "emit",
        "emitting",
        "events_enabled",
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
)

RUNTIME_EXPORTS = sorted(
    [
        "PlanJob",
        "PlannerSpec",
        "JobResult",
        "JobTimeoutError",
        "JobCancelledError",
        "execute_job",
        "PlannerPool",
        "EventRelay",
        "default_workers",
        "Scheduler",
        "LocalScheduler",
        "grid_jobs",
        "iter_jobs",
        "run_jobs",
        "PortfolioOutcome",
        "run_portfolio",
        "ResultStore",
        "code_version",
        "default_cache_dir",
        "Telemetry",
        "read_manifest",
        "summarize_manifest",
        "JobJournal",
        "JobLease",
        "LeasePolicy",
        "FaultPlan",
        "FaultSpec",
        "InjectedFaultError",
    ]
)


def test_repro_export_snapshot():
    assert sorted(repro.__all__) == REPRO_EXPORTS


def test_repro_api_export_snapshot():
    assert sorted(repro.api.__all__) == REPRO_API_EXPORTS


def test_repro_runtime_export_snapshot():
    import repro.runtime

    assert sorted(repro.runtime.__all__) == RUNTIME_EXPORTS


def test_every_exported_symbol_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_lazy_attribute_error_still_raised():
    try:
        repro.definitely_not_an_attribute
    except AttributeError as exc:
        assert "definitely_not_an_attribute" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected AttributeError")
