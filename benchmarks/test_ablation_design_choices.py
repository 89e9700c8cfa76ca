"""Extra ablations for E-BLOW's design choices.

These go beyond the paper's figures and quantify the contribution of the
individual E-BLOW ingredients:

* pre-filter and KD-tree clustering in the 2D flow,
* the DP refinement vs the naive greedy symmetric ordering in the 1D flow,
* the KD-tree vs the O(n^2) scan inside the clustering step.
"""

from __future__ import annotations

import pytest

from bench_utils import cached_instance
from repro.core.onedim.refinement import refine_row_order
from repro.core.onedim.row import greedy_symmetric_order, packed_width
from repro.core.profits import compute_profits
from repro.core.twodim import EBlow2DConfig, EBlow2DPlanner, cluster_characters, clustering
from tests.oracles.clustering import ScanIndex


@pytest.mark.parametrize("use_clustering", [True, False])
def test_ablation_2d_clustering(benchmark, use_clustering, scale, bench_schedule):
    instance = cached_instance("2M-2", scale)
    config = EBlow2DConfig(schedule=bench_schedule, use_clustering=use_clustering)

    plan = benchmark.pedantic(
        lambda: EBlow2DPlanner(config).plan(instance), rounds=1, iterations=1
    )
    plan.validate()
    benchmark.extra_info["use_clustering"] = use_clustering
    benchmark.extra_info["writing_time"] = round(plan.stats["writing_time"], 1)
    benchmark.extra_info["num_blocks"] = plan.stats["num_clusters"]


@pytest.mark.parametrize("use_prefilter", [True, False])
def test_ablation_2d_prefilter(benchmark, use_prefilter, scale, bench_schedule):
    instance = cached_instance("2D-2", scale)
    config = EBlow2DConfig(schedule=bench_schedule, use_prefilter=use_prefilter)

    plan = benchmark.pedantic(
        lambda: EBlow2DPlanner(config).plan(instance), rounds=1, iterations=1
    )
    plan.validate()
    benchmark.extra_info["use_prefilter"] = use_prefilter
    benchmark.extra_info["writing_time"] = round(plan.stats["writing_time"], 1)
    benchmark.extra_info["num_prefiltered"] = plan.stats["num_prefiltered"]


@pytest.mark.parametrize("use_kdtree", [True, False])
def test_ablation_clustering_kdtree_vs_scan(benchmark, use_kdtree, scale, monkeypatch):
    """The KD-tree should not change the clustering, only accelerate it.

    The scan is the oracle ``tests/oracles/clustering.py`` in the tree's place.
    """
    instance = cached_instance("2M-3", scale)
    profits = compute_profits(instance)
    if not use_kdtree:
        monkeypatch.setattr(clustering, "KDTree", ScanIndex)

    clusters = benchmark.pedantic(
        lambda: cluster_characters(list(instance.characters), profits),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["use_kdtree"] = use_kdtree
    benchmark.extra_info["num_clusters"] = len(clusters)
    assert sum(c.size for c in clusters) == instance.num_characters


def test_ablation_refinement_vs_greedy_order(benchmark, scale):
    """The DP refinement should never produce wider rows than the naive order."""
    instance = cached_instance("1D-3", scale)
    from repro.core.onedim import EBlow1DPlanner

    plan = EBlow1DPlanner().plan(instance)
    rows = plan.rows_as_names()

    def total_refined_width():
        return sum(
            refine_row_order([instance.character(n) for n in names]).width
            for names in rows
            if names
        )

    refined_total = benchmark.pedantic(total_refined_width, rounds=1, iterations=1)
    greedy_total = sum(
        packed_width(greedy_symmetric_order([instance.character(n) for n in names]))
        for names in rows
        if names
    )
    benchmark.extra_info["refined_total_width"] = round(refined_total, 1)
    benchmark.extra_info["greedy_total_width"] = round(greedy_total, 1)
    assert refined_total <= greedy_total + 1e-6
