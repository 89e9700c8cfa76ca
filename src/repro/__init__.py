"""E-BLOW: overlapping-aware stencil planning for e-beam MCC systems.

This package reproduces the system described in *"E-BLOW: E-Beam Lithography
Overlapping aware Stencil Planning for MCC System"* (Yu, Yuan, Gao, Pan —
DAC 2013 / TCAD extension).  The top-level namespace re-exports the pieces a
typical user needs:

>>> from repro import generate_1d_instance, EBlow1DPlanner, evaluate_plan
>>> instance = generate_1d_instance(num_characters=60, num_regions=4, seed=1)
>>> plan = EBlow1DPlanner().plan(instance)
>>> report = evaluate_plan(plan)
>>> report.total <= max(instance.vsb_times())
True

See ``README.md`` for the quickstart and the CLI verbs that reproduce the
paper's tables and figures, and ``docs/API.md`` for the planning API.
"""

from repro.model import (
    Character,
    OSPInstance,
    Placement2D,
    Region,
    RowPlacement,
    StencilPlan,
    StencilSpec,
    WritingTimeReport,
    evaluate_plan,
    region_writing_times,
    system_writing_time,
)

__version__ = "1.1.0"

__all__ = [
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
    # The unified planning API (see repro.api for the full surface).
    "plan",
    "PlanEvent",
    "list_planners",
    "__version__",
]

# Lazily resolved top-level attributes: planners/generators plus the façade
# surface of :mod:`repro.api`.  Lazy imports keep ``import repro`` cheap and
# avoid import cycles.
_LAZY_ATTRS = {
    "EBlow1DPlanner": ("repro.core.onedim.planner", "EBlow1DPlanner"),
    "EBlow2DPlanner": ("repro.core.twodim.planner", "EBlow2DPlanner"),
    "generate_1d_instance": ("repro.workloads.generator", "generate_1d_instance"),
    "generate_2d_instance": ("repro.workloads.generator", "generate_2d_instance"),
    "plan": ("repro.api", "plan"),
    "PlanEvent": ("repro.api", "PlanEvent"),
    "list_planners": ("repro.api", "list_planners"),
    # attr None: the attribute is the module itself
    # (`import repro; repro.api.<...>` without an extra import).
    "api": ("repro.api", None),
}


def __getattr__(name):
    target = _LAZY_ATTRS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module_name, attr = target
    module = importlib.import_module(module_name)
    return module if attr is None else getattr(module, attr)
