"""Writing-time evaluation (Eqn. 1 of the paper).

For an MCC system with regions ``r_1 ... r_P`` and a selection vector ``a_i``
over character candidates, the writing time of region ``c`` is::

    T_c = T_VSB(c) - sum_i R_ic * a_i

and the system writing time is ``T_total = max_c T_c``.  These helpers are
used by every planner, baseline, benchmark, and test in the library, so the
objective is always computed by one piece of code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.model.instance import OSPInstance
from repro.model.placement import StencilPlan

__all__ = [
    "WritingTimeReport",
    "region_writing_times",
    "system_writing_time",
    "evaluate_plan",
    "writing_time_of_selection",
]


@dataclass(frozen=True)
class WritingTimeReport:
    """Per-region and total writing time of a plan."""

    region_times: tuple[float, ...]
    total: float
    vsb_only_total: float
    num_selected: int

    @property
    def improvement(self) -> float:
        """Absolute writing-time reduction vs. pure-VSB writing."""
        return self.vsb_only_total - self.total

    @property
    def improvement_ratio(self) -> float:
        """Relative reduction vs. pure-VSB writing (0 when VSB time is 0)."""
        if self.vsb_only_total <= 0:
            return 0.0
        return self.improvement / self.vsb_only_total

    @property
    def bottleneck_region(self) -> int:
        """Index of the region that determines the system writing time."""
        return max(range(len(self.region_times)), key=lambda c: self.region_times[c])


def region_writing_times(
    instance: OSPInstance, selected: Iterable[str]
) -> list[float]:
    """Writing time of every region given the set of selected character names.

    Vectorized: one row-gather + column sum over the cached ``(n, P)``
    reduction matrix.
    """
    # Sorted so the float sum never follows a set's string-hash order.
    indices = sorted(instance.indices_of(set(selected)))
    if not indices:
        return instance.vsb_times()
    times = instance.vsb_times_array() - instance.reduction_matrix_array()[indices].sum(axis=0)
    return times.tolist()


def system_writing_time(instance: OSPInstance, selected: Iterable[str]) -> float:
    """System writing time ``T_total = max_c T_c`` for a selection."""
    return max(region_writing_times(instance, selected))


def writing_time_of_selection(
    instance: OSPInstance, selection_vector: Sequence[int]
) -> float:
    """System writing time for a 0/1 selection vector aligned with characters."""
    names = [
        ch.name
        for ch, a in zip(instance.characters, selection_vector)
        if a
    ]
    return system_writing_time(instance, names)


def evaluate_plan(plan: StencilPlan) -> WritingTimeReport:
    """Evaluate a plan and return a :class:`WritingTimeReport`.

    The report is also cached into ``plan.stats`` under the keys
    ``"writing_time"`` and ``"region_times"`` so downstream reporting can
    reuse it without recomputation.
    """
    instance = plan.instance
    selected = plan.selected_names
    times = region_writing_times(instance, selected)
    report = WritingTimeReport(
        region_times=tuple(times),
        total=max(times),
        vsb_only_total=max(instance.vsb_times()),
        num_selected=len(selected),
    )
    plan.stats["writing_time"] = report.total
    plan.stats["region_times"] = list(report.region_times)
    plan.stats["num_selected"] = report.num_selected
    return report
