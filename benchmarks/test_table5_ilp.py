"""Table 5 — exact ILP formulations (3)/(7) vs E-BLOW on tiny instances.

Expected shape (paper): the ILP matches E-BLOW's writing time on the 1D cases
it can solve, but its runtime explodes with the candidate count (the paper
could not solve 14-character 1D or 12-character 2D cases within an hour);
E-BLOW stays in fractions of a second.  A HiGHS node limit stands in for
the paper's "NA / >3600 s" entries: ``optimal`` in ``extra_info`` records
whether the search finished within it.  Unlike a wall-clock cap, the node
limit returns the same plan however loaded the host is.
"""

from __future__ import annotations

import pytest

from bench_utils import cached_instance, record_plan
from repro.baselines import ExactILP1DPlanner, ExactILP2DPlanner, ExactILPConfig
from repro.core.onedim import EBlow1DPlanner
from repro.core.twodim import EBlow2DConfig, EBlow2DPlanner
from repro.experiments import TABLE5_1D_CASES, TABLE5_2D_CASES

ILP_CONFIG = ExactILPConfig(time_limit=None, node_limit=500)


@pytest.mark.parametrize("case", TABLE5_1D_CASES)
def test_table5_1d_ilp(benchmark, case):
    instance = cached_instance(case, 1.0)
    plan = benchmark.pedantic(
        lambda: ExactILP1DPlanner(ILP_CONFIG).plan(instance),
        rounds=1,
        iterations=1,
    )
    record_plan(benchmark, plan)
    benchmark.extra_info["optimal"] = bool(plan.stats["optimal"])
    benchmark.extra_info["binary_vars"] = plan.stats["ilp_binary_variables"]


@pytest.mark.parametrize("case", TABLE5_1D_CASES)
def test_table5_1d_eblow(benchmark, case):
    instance = cached_instance(case, 1.0)
    plan = benchmark.pedantic(
        lambda: EBlow1DPlanner().plan(instance), rounds=1, iterations=1
    )
    plan.validate()
    record_plan(benchmark, plan)


@pytest.mark.parametrize("case", TABLE5_2D_CASES)
def test_table5_2d_ilp(benchmark, case):
    instance = cached_instance(case, 1.0)
    plan = benchmark.pedantic(
        lambda: ExactILP2DPlanner(ILP_CONFIG).plan(instance),
        rounds=1,
        iterations=1,
    )
    record_plan(benchmark, plan)
    benchmark.extra_info["optimal"] = bool(plan.stats["optimal"])
    benchmark.extra_info["binary_vars"] = plan.stats["ilp_binary_variables"]


@pytest.mark.parametrize("case", TABLE5_2D_CASES)
def test_table5_2d_eblow(benchmark, case, bench_schedule):
    instance = cached_instance(case, 1.0)
    plan = benchmark.pedantic(
        lambda: EBlow2DPlanner(EBlow2DConfig(schedule=bench_schedule)).plan(instance),
        rounds=1,
        iterations=1,
    )
    plan.validate()
    record_plan(benchmark, plan)


def test_table5_eblow_matches_ilp_quality_on_small_1d(benchmark):
    """Shape check: E-BLOW reaches the exact optimum on the small 1T cases."""
    instance = cached_instance("1T-1", 1.0)
    ilp = ExactILP1DPlanner(ExactILPConfig(time_limit=60)).plan(instance)
    eblow = benchmark.pedantic(
        lambda: EBlow1DPlanner().plan(instance), rounds=1, iterations=1
    )
    benchmark.extra_info["ilp_T"] = round(ilp.stats["writing_time"], 1)
    benchmark.extra_info["eblow_T"] = round(eblow.stats["writing_time"], 1)
    assert eblow.stats["writing_time"] <= ilp.stats["writing_time"] * 1.05 + 1e-6
