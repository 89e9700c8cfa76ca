"""The E-BLOW 2DOSP planner (Fig. 9 of the paper).

Flow: profit pre-filter → KD-tree clustering → fixed-outline simulated
annealing over the clusters → unfold the clusters that landed inside the
outline back into per-character placements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import kernels_of
from repro.core.profits import compute_profits
from repro.core.twodim.clustering import (
    CharacterCluster,
    ClusteringConfig,
    cluster_characters,
)
from repro.core.twodim.prefilter import PreFilterConfig, prefilter_characters
from repro.errors import ValidationError
from repro.events import timed_stage
from repro.floorplan import AnnealingSchedule, FixedOutlinePacker
from repro.model import OSPInstance, Placement2D, StencilPlan
from repro.model.writing_time import evaluate_plan

__all__ = ["EBlow2DConfig", "EBlow2DPlanner", "ClusterTimeModel"]


@dataclass
class EBlow2DConfig:
    """Configuration of the complete 2D E-BLOW flow.

    Setting ``use_prefilter=False`` and ``use_clustering=False`` turns the
    planner into the plain [24]-style annealer the paper compares against.
    """

    prefilter: PreFilterConfig = field(default_factory=PreFilterConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    schedule: AnnealingSchedule | None = None
    use_prefilter: bool = True
    use_clustering: bool = True
    seed: int = 0

    def resolved_schedule(self, num_blocks: int) -> AnnealingSchedule:
        """The annealing schedule, sized to the number of blocks if not given."""
        if self.schedule is not None:
            return self.schedule
        return AnnealingSchedule(
            initial_temperature=0.4,
            final_temperature=3e-3,
            cooling_rate=0.88,
            moves_per_temperature=max(16, int(1.3 * num_blocks)),
        )


class EBlow2DPlanner:
    """End-to-end planner for 2DOSP instances."""

    def __init__(self, config: EBlow2DConfig | None = None) -> None:
        self.config = config or EBlow2DConfig()

    def plan(self, instance: OSPInstance) -> StencilPlan:
        """Plan the stencil for ``instance`` and return a validated plan."""
        if instance.kind != "2D":
            raise ValidationError(
                f"EBlow2DPlanner expects a 2D instance, got kind={instance.kind!r}"
            )
        start = time.perf_counter()
        config = self.config
        stage_seconds: dict[str, float] = {}

        profits = compute_profits(instance)

        # Stage 1: pre-filter.
        with timed_stage("prefilter", stage_seconds):
            if config.use_prefilter:
                kept = prefilter_characters(instance, config.prefilter)
            else:
                kept = [i for i in range(instance.num_characters) if profits[i] > 0]
            kept_characters = [instance.characters[i] for i in kept]
            kept_profits = [profits[i] for i in kept]

        # Stage 2: clustering.
        with timed_stage("clustering", stage_seconds, kept=len(kept)):
            if config.use_clustering:
                clusters = cluster_characters(kept_characters, kept_profits, config.clustering)
            else:
                clusters = [
                    CharacterCluster.singleton(ch, p)
                    for ch, p in zip(kept_characters, kept_profits)
                ]
            # Drop clusters that cannot possibly fit inside the outline.
            clusters = [
                cl
                for cl in clusters
                if cl.width <= instance.stencil.width + 1e-9
                and cl.height <= instance.stencil.height + 1e-9
            ]

        # Stage 3: fixed-outline annealing over the clusters.
        blocks = {cl.name: cl.to_block() for cl in clusters}
        schedule = config.resolved_schedule(len(blocks))
        with timed_stage("annealing", stage_seconds, clusters=len(clusters)):
            cluster_by_name = {cl.name: cl for cl in clusters}
            time_model = ClusterTimeModel(instance, cluster_by_name)
            packer = FixedOutlinePacker(
                width=instance.stencil.width,
                height=instance.stencil.height,
                blocks=blocks,
                writing_time_of=time_model,
                time_model=time_model,
            )
            initial_pair = _shelf_initial_pair(clusters, instance.stencil.width)
            result = packer.pack(
                schedule=schedule, seed=config.seed, initial=initial_pair
            )

        # Stage 4: unfold clusters into per-character placements.
        with timed_stage("unfold", stage_seconds, inside=len(result.inside)):
            placements: list[Placement2D] = []
            for cluster_name, (x, y) in result.inside.items():
                cluster = cluster_by_name[cluster_name]
                for member in cluster.members:
                    ox, oy = cluster.offsets[member.name]
                    placements.append(Placement2D(name=member.name, x=x + ox, y=y + oy))

        plan = StencilPlan(instance=instance, placements2d=placements)
        plan.validate()
        elapsed = time.perf_counter() - start
        report = evaluate_plan(plan)
        plan.stats.update(
            {
                "algorithm": "e-blow-2d",
                "runtime_seconds": elapsed,
                "stage_seconds": dict(stage_seconds),
                "writing_time": report.total,
                "num_selected": report.num_selected,
                "num_prefiltered": len(kept),
                "num_clusters": len(clusters),
                "annealing_moves": result.annealing.moves,
                "annealing_accepted": result.annealing.accepted,
                "move_acceptance": {
                    kind: [stats.proposed, stats.accepted, stats.improved]
                    for kind, stats in sorted(result.annealing.move_stats.items())
                },
                "use_prefilter": config.use_prefilter,
                "use_clustering": config.use_clustering,
            }
        )
        return plan


def _shelf_initial_pair(clusters: list[CharacterCluster], stencil_width: float):
    """Seed sequence pair: clusters laid out in profit-density shelves.

    The annealer keeps the best state it ever visits, so starting from a
    sensible shelf packing (most profitable clusters first, filling rows up to
    the stencil width) guarantees the 2D flow is never worse than a greedy
    shelf arrangement of the same blocks.
    """
    from repro.floorplan import SequencePair

    if not clusters:
        return None

    def density(cluster: CharacterCluster) -> float:
        return cluster.profit / max(cluster.width * cluster.height, 1e-9)

    ordered = sorted(clusters, key=density, reverse=True)
    shelves: list[list[str]] = [[]]
    used = 0.0
    for cluster in ordered:
        if used + cluster.width > stencil_width and shelves[-1]:
            shelves.append([])
            used = 0.0
        shelves[-1].append(cluster.name)
        used += cluster.width
    # Gamma+ lists shelves from top to bottom, Gamma- from bottom to top; both
    # keep the left-to-right order within a shelf, which encodes "same shelf:
    # left-of, different shelf: below/above".
    positive = [name for shelf in reversed(shelves) for name in shelf]
    negative = [name for shelf in shelves for name in shelf]
    return SequencePair(positive=tuple(positive), negative=tuple(negative))


class ClusterTimeModel:
    """Vectorized region-time evaluation over clusters of characters.

    Selecting a cluster selects all its members at once, so each cluster gets
    one pre-aggregated reduction vector.  The model is both a plain
    ``writing_time_of`` callback (set of names -> system writing time) and a
    :class:`~repro.floorplan.fixed_outline.RegionTimeModel`, which lets the
    fixed-outline packer score annealing moves by incremental region-time
    updates.
    """

    def __init__(self, instance: OSPInstance, clusters: dict[str, CharacterCluster]) -> None:
        kernels = kernels_of(instance)
        self.vsb = np.asarray(kernels.vsb, dtype=float)
        reductions = kernels.reductions
        index_of = kernels.name_index
        self.cluster_names = sorted(clusters)
        self.cluster_row = {name: i for i, name in enumerate(self.cluster_names)}
        self.cluster_reductions = np.array(
            [
                reductions[[index_of[m.name] for m in clusters[name].members]].sum(axis=0)
                for name in self.cluster_names
            ],
            dtype=float,
        ).reshape(len(self.cluster_names), instance.num_regions)

    # RegionTimeModel protocol ------------------------------------------- #
    def vsb_times_array(self) -> np.ndarray:
        return self.vsb

    def reduction_rows(self, names) -> np.ndarray:
        return self.cluster_reductions[[self.cluster_row[name] for name in names]]

    # writing_time_of callback ------------------------------------------- #
    def __call__(self, selected_clusters: set[str]) -> float:
        if not selected_clusters:
            return float(self.vsb.max())
        rows = sorted(self.cluster_row[name] for name in selected_clusters)
        times = self.vsb - self.cluster_reductions[rows].sum(axis=0)
        return float(times.max())
