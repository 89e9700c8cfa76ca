"""Unit tests for the KD-tree based character clustering (Algorithm 4)."""

import pytest

from repro.core.twodim import clustering
from repro.core.twodim.clustering import (
    CharacterCluster,
    ClusteringConfig,
    cluster_characters,
)
from repro.model import Character
from tests.oracles.clustering import ScanIndex


def char(name, width=40, height=40, blanks=5.0, repeats=(2.0,)):
    return Character(
        name=name, width=width, height=height,
        blank_left=blanks, blank_right=blanks, blank_top=blanks, blank_bottom=blanks,
        vsb_shots=10, repeats=repeats,
    )


class TestSingletonAndMerge:
    def test_singleton_mirrors_character(self):
        c = char("a")
        cluster = CharacterCluster.singleton(c, profit=12.0)
        assert cluster.size == 1
        assert cluster.width == c.width and cluster.height == c.height
        assert cluster.offsets == {"a": (0.0, 0.0)}
        assert cluster.profit == 12.0
        block = cluster.to_block()
        assert block.width == c.width

    def test_merge_shares_blanks_and_offsets(self):
        a = CharacterCluster.singleton(char("a"), profit=5.0)
        b = CharacterCluster.singleton(char("b"), profit=7.0)
        merged = a.merge(b, profit=7.0)
        assert merged.size == 2
        assert merged.profit == 12.0
        # Same-size squares merge horizontally (or vertically) sharing 5 blank.
        assert merged.width + merged.height == pytest.approx(40 + 75)
        # Offsets keep members inside the cluster bounding box.
        for name, (dx, dy) in merged.offsets.items():
            assert 0 <= dx <= merged.width - 40 + 1e-9
            assert 0 <= dy <= merged.height - 40 + 1e-9

    def test_merge_prefers_squarer_result(self):
        wide = CharacterCluster.singleton(char("w", width=80, height=20), profit=1.0)
        other = CharacterCluster.singleton(char("o", width=80, height=20), profit=1.0)
        merged = wide.merge(other, profit=1.0)
        # Stacking vertically keeps it squarer than a 160-wide strip.
        assert merged.height > 20
        assert merged.width == 80


class TestClustering:
    def test_similar_characters_get_grouped(self):
        chars = [char(f"c{i}") for i in range(8)]  # identical characters
        profits = [10.0] * 8
        clusters = cluster_characters(chars, profits, ClusteringConfig(max_members=4))
        assert sum(c.size for c in clusters) == 8
        assert len(clusters) < 8  # some merging must have happened
        assert max(c.size for c in clusters) <= 4

    def test_dissimilar_characters_stay_singletons(self):
        chars = [
            char("small", width=20, height=20, blanks=2),
            char("large", width=80, height=80, blanks=14),
        ]
        clusters = cluster_characters(chars, [5.0, 50.0])
        assert len(clusters) == 2
        assert all(c.size == 1 for c in clusters)

    def test_kdtree_and_scan_agree_on_cluster_count(self, monkeypatch):
        """The KD-tree range query finds the clusters the O(n^2) scan finds."""
        chars = [char(f"c{i}", width=40 + (i % 3), height=40 + (i % 2)) for i in range(12)]
        profits = [10.0 + (i % 3) for i in range(12)]
        with_tree = cluster_characters(chars, profits)
        monkeypatch.setattr(clustering, "KDTree", ScanIndex)
        without_tree = cluster_characters(chars, profits)
        assert sum(c.size for c in with_tree) == 12
        assert sum(c.size for c in without_tree) == 12
        assert len(with_tree) == len(without_tree)
        assert len(with_tree) < 12  # the instance does merge
        assert [
            (c.name, [m.name for m in c.members]) for c in with_tree
        ] == [(c.name, [m.name for m in c.members]) for c in without_tree]

    def test_every_member_appears_exactly_once(self, small_2d_instance):
        inst = small_2d_instance
        from repro.core.profits import compute_profits

        profits = compute_profits(inst)
        clusters = cluster_characters(list(inst.characters), profits)
        members = [m.name for cl in clusters for m in cl.members]
        assert sorted(members) == sorted(c.name for c in inst.characters)

    def test_empty_input(self):
        assert cluster_characters([], []) == []

    def test_profit_similarity_bound_respected(self):
        # Same geometry but wildly different profits must not merge.
        chars = [char("a"), char("b")]
        clusters = cluster_characters(chars, [1.0, 100.0], ClusteringConfig(bound=0.2))
        assert len(clusters) == 2
