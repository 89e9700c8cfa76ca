"""Self-registering planner handles for every planner in the repository.

Each planner declares its kind, its options and the events it emits as one
:class:`~repro.api.registry.PlannerHandle`, registered at import time.  The
options are the ones the paper's experiments set: ``ablated`` for E-BLOW-0,
``seed`` for the annealers and ``time_limit`` for the exact ILP.  Builders
import their planner modules lazily so ``import repro.api`` stays cheap;
registration is process-local and inherited by forked pool workers.

Adding a planner means adding one :func:`~repro.api.registry.register` call
here (or calling it from your own module before use) — the CLI ``planners``
verb, the batch runtime, portfolio racing, and ``repro.plan`` all pick it up
through the shared registry.
"""

from __future__ import annotations

from repro.api.registry import OptionField, PlannerHandle, register

__all__ = ["STABLE_PLANNERS"]


def _build_greedy_1d(options: dict):
    from repro.baselines import Greedy1DPlanner

    return Greedy1DPlanner()


def _build_heur_1d(options: dict):
    from repro.baselines import Heuristic1DPlanner

    return Heuristic1DPlanner()


def _build_rows_1d(options: dict):
    from repro.baselines import RowStructure1DPlanner

    return RowStructure1DPlanner()


def _build_eblow_1d(options: dict):
    from repro.core.onedim import EBlow1DConfig, EBlow1DPlanner

    config = EBlow1DConfig.ablated() if options.get("ablated") else EBlow1DConfig()
    return EBlow1DPlanner(config)


def _build_greedy_2d(options: dict):
    from repro.baselines import Greedy2DPlanner

    return Greedy2DPlanner()


def _build_sa_2d(options: dict):
    from repro.baselines import Floorplan2DConfig, Floorplan2DPlanner

    return Floorplan2DPlanner(Floorplan2DConfig(seed=int(options.get("seed", 0))))


def _build_eblow_2d(options: dict):
    from repro.core.twodim import EBlow2DConfig, EBlow2DPlanner

    return EBlow2DPlanner(EBlow2DConfig(seed=int(options.get("seed", 0))))


def _build_ilp_1d(options: dict):
    from repro.baselines import ExactILP1DPlanner

    return ExactILP1DPlanner(_ilp_config(options))


def _build_ilp_2d(options: dict):
    from repro.baselines import ExactILP2DPlanner

    return ExactILP2DPlanner(_ilp_config(options))


def _ilp_config(options: dict):
    from repro.baselines import ExactILPConfig

    return ExactILPConfig(time_limit=options.get("time_limit", 300.0))


_SEED = OptionField(name="seed", type="int", default=0, description="annealing RNG seed")
_TIME_LIMIT = OptionField(
    name="time_limit",
    type="float",
    default=300.0,
    description="MILP wall-clock budget in seconds",
)
_ANNEAL_EVENTS = ("temperature", "incumbent", "rebase")

#: Every first-party planner handle, registered at import time.
STABLE_PLANNERS: tuple[PlannerHandle, ...] = (
    register(
        PlannerHandle(
            name="greedy-1d",
            description="first-fit greedy 1DOSP baseline (Greedy[24])",
            kind="1D",
            builder=_build_greedy_1d,
        )
    ),
    register(
        PlannerHandle(
            name="heur-1d",
            description="two-step select-then-pack heuristic (Heur[24])",
            kind="1D",
            builder=_build_heur_1d,
        )
    ),
    register(
        PlannerHandle(
            name="rows-1d",
            description="row-structure deterministic 1D baseline ([25]-style)",
            kind="1D",
            builder=_build_rows_1d,
        )
    ),
    register(
        PlannerHandle(
            name="eblow-1d",
            description="E-BLOW 1DOSP flow (option ablated=true gives E-BLOW-0)",
            kind="1D",
            builder=_build_eblow_1d,
            options=(
                OptionField(
                    name="ablated",
                    type="bool",
                    default=False,
                    description="run E-BLOW-0 (no fast ILP convergence, no post-insertion)",
                ),
            ),
            # The fast-convergence ILP stops on a relative MIP gap (no
            # wall-clock cap), so the whole flow is reproducible across
            # machines and load.
            deterministic=True,
            event_types=("stage", "stage_done", "lp_solve", "iteration"),
        )
    ),
    register(
        PlannerHandle(
            name="greedy-2d",
            description="shelf-packing greedy 2DOSP baseline (Greedy[24])",
            kind="2D",
            builder=_build_greedy_2d,
        )
    ),
    register(
        PlannerHandle(
            name="sa-2d",
            description="plain fixed-outline annealer baseline (SA[24])",
            kind="2D",
            builder=_build_sa_2d,
            options=(_SEED,),
            event_types=_ANNEAL_EVENTS,
        )
    ),
    register(
        PlannerHandle(
            name="eblow-2d",
            description="E-BLOW 2DOSP flow (pre-filter + clustering + annealing)",
            kind="2D",
            builder=_build_eblow_2d,
            options=(_SEED,),
            event_types=("stage", "stage_done") + _ANNEAL_EVENTS,
        )
    ),
    register(
        PlannerHandle(
            name="ilp-1d",
            description="exact 1DOSP ILP (option: time_limit)",
            kind="1D",
            builder=_build_ilp_1d,
            options=(_TIME_LIMIT,),
            deterministic=False,  # time-limited MILP returns its incumbent
        )
    ),
    register(
        PlannerHandle(
            name="ilp-2d",
            description="exact 2DOSP ILP (option: time_limit)",
            kind="2D",
            builder=_build_ilp_2d,
            options=(_TIME_LIMIT,),
            deterministic=False,
        )
    ),
)
