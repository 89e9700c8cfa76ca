"""Unit tests for the KD-tree (construction, range search, deletion)."""

import random

import pytest

from repro.errors import ValidationError
from repro.geometry import KDTree


def brute_force_range(points, lo, hi):
    return sorted(
        payload
        for coords, payload in points
        if all(l <= c <= h for l, c, h in zip(lo, coords, hi))
    )


class TestConstruction:
    def test_empty_build_requires_dimensions(self):
        with pytest.raises(ValidationError):
            KDTree.build([])
        tree = KDTree.build([], dimensions=3)
        assert len(tree) == 0
        assert tree.query_range([0, 0, 0], [1, 1, 1]) == []

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            KDTree.build([((1.0, 2.0), "a"), ((1.0, 2.0, 3.0), "b")])
        tree = KDTree(2)
        with pytest.raises(ValidationError):
            tree.insert((1.0,), "x")

    def test_rejects_duplicate_payload_insert(self):
        tree = KDTree(2)
        tree.insert((1, 1), "a")
        with pytest.raises(ValidationError):
            tree.insert((2, 2), "a")


class TestRangeSearch:
    def test_matches_brute_force(self):
        rng = random.Random(42)
        points = [
            ((rng.uniform(0, 100), rng.uniform(0, 100)), i) for i in range(300)
        ]
        tree = KDTree.build(points)
        for _ in range(40):
            lo = [rng.uniform(0, 80), rng.uniform(0, 80)]
            hi = [lo[0] + rng.uniform(0, 40), lo[1] + rng.uniform(0, 40)]
            assert sorted(tree.query_range(lo, hi)) == brute_force_range(points, lo, hi)

    def test_incremental_insert_matches_brute_force(self):
        rng = random.Random(1)
        tree = KDTree(3)
        points = []
        for i in range(120):
            coords = (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10))
            tree.insert(coords, i)
            points.append((coords, i))
        lo, hi = [2, 2, 2], [8, 8, 8]
        assert sorted(tree.query_range(lo, hi)) == brute_force_range(points, lo, hi)

    def test_bounds_dimension_check(self):
        tree = KDTree.build([((1.0, 2.0), "a")])
        with pytest.raises(ValidationError):
            tree.query_range([0.0], [1.0])


class TestDeletion:
    def test_lazy_deletion(self):
        points = [((float(i), float(i)), i) for i in range(20)]
        tree = KDTree.build(points)
        assert tree.remove(5)
        assert not tree.remove(5)       # already deleted
        assert not tree.remove(999)     # never existed
        assert len(tree) == 19
        assert 5 not in tree
        assert 6 in tree
        result = tree.query_range([0, 0], [30, 30])
        assert 5 not in result and len(result) == 19


class TestBoundingBoxPruning:
    """The subtree-box pruning must be invisible except in node visits."""

    @staticmethod
    def _assert_boxes_consistent(tree):
        """Every node's box is exactly the hull of its live subtree points."""

        def visit(node):
            if node is None:
                return []
            live = visit(node.left) + visit(node.right)
            if not node.deleted:
                live.append(node.point)
            if not live:
                assert node.bbox_lo is None and node.bbox_hi is None
            else:
                lo = tuple(min(p[d] for p in live) for d in range(tree.dimensions))
                hi = tuple(max(p[d] for p in live) for d in range(tree.dimensions))
                assert node.bbox_lo == lo, (node.bbox_lo, lo)
                assert node.bbox_hi == hi, (node.bbox_hi, hi)
            return live

        visit(tree._root)

    def test_boxes_tight_under_mixed_insert_remove(self):
        rng = random.Random(7)
        points = [
            ((rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0, 50)), i)
            for i in range(80)
        ]
        tree = KDTree.build(points[:50])
        self._assert_boxes_consistent(tree)
        for coords, payload in points[50:]:
            tree.insert(coords, payload)
        self._assert_boxes_consistent(tree)
        for payload in rng.sample(range(80), 40):
            tree.remove(payload)
        self._assert_boxes_consistent(tree)

    def test_range_results_and_order_match_under_deletion(self):
        rng = random.Random(11)
        points = [((rng.uniform(0, 100), rng.uniform(0, 100)), i) for i in range(250)]
        tree = KDTree.build(points)
        live = {p: c for c, p in points}
        for payload in rng.sample(range(250), 120):
            tree.remove(payload)
            live.pop(payload, None)
        for _ in range(60):
            lo = [rng.uniform(-10, 90), rng.uniform(-10, 90)]
            hi = [lo[0] + rng.uniform(0, 35), lo[1] + rng.uniform(0, 35)]
            got = tree.query_range(lo, hi)
            expected = brute_force_range(
                [(c, p) for p, c in live.items()], lo, hi
            )
            assert sorted(got) == expected
            # No duplicates: pruning must not re-visit subtrees.
            assert len(got) == len(set(got))

    def test_disjoint_window_prunes_to_zero_visits(self):
        rng = random.Random(3)
        points = [((rng.uniform(0, 10), rng.uniform(0, 10)), i) for i in range(200)]
        tree = KDTree.build(points)
        visits = {"n": 0}
        original = tree._range_recursive

        def counting(node, lo, hi, out):
            visits["n"] += 1
            return original(node, lo, hi, out)

        tree._range_recursive = counting
        assert tree.query_range([50, 50], [60, 60]) == []
        # One call on the root, pruned immediately by its bounding box.
        assert visits["n"] == 1
