"""Simulated-annealing 2DOSP baseline (the framework of [24]).

The same fixed-outline sequence-pair annealer E-BLOW uses, but without the
profit pre-filter and without KD-tree clustering: every candidate character
is an individual block.  This is the configuration the paper attributes to
[24] in Table 4 — slower (much larger solution space) and usually worse on
writing time than E-BLOW, although it tends to squeeze slightly more
characters onto the stencil.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.twodim.planner import EBlow2DConfig, EBlow2DPlanner
from repro.errors import ValidationError
from repro.floorplan import AnnealingSchedule
from repro.model import OSPInstance, StencilPlan

__all__ = ["Floorplan2DConfig", "Floorplan2DPlanner"]


@dataclass
class Floorplan2DConfig:
    """Configuration of the plain-annealing baseline."""

    schedule: AnnealingSchedule | None = None
    seed: int = 0


class Floorplan2DPlanner:
    """[24]-style fixed-outline annealer without pre-filter or clustering."""

    def __init__(self, config: Floorplan2DConfig | None = None) -> None:
        self.config = config or Floorplan2DConfig()

    def plan(self, instance: OSPInstance) -> StencilPlan:
        """Run the plain annealer and return a validated plan."""
        if instance.kind != "2D":
            raise ValidationError("Floorplan2DPlanner expects a 2D instance")
        start = time.perf_counter()
        inner = EBlow2DPlanner(
            EBlow2DConfig(
                use_prefilter=False,
                use_clustering=False,
                schedule=self.config.schedule,
                seed=self.config.seed,
            )
        )
        plan = inner.plan(instance)
        plan.stats["algorithm"] = "floorplan-2d"
        plan.stats["runtime_seconds"] = time.perf_counter() - start
        return plan
