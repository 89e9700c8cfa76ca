"""Property-based tests for the KD-tree (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import KDTree

coordinates = st.tuples(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
point_sets = st.lists(coordinates, min_size=0, max_size=60)


def brute_force(points, lo, hi):
    return sorted(
        i
        for i, coords in enumerate(points)
        if all(l <= c <= h for l, c, h in zip(lo, coords, hi))
    )


@given(points=point_sets, query=st.tuples(coordinates, coordinates))
@settings(max_examples=60, deadline=None)
def test_range_query_matches_brute_force(points, query):
    tree = KDTree.build([(p, i) for i, p in enumerate(points)], dimensions=3)
    lo_raw, hi_raw = query
    lo = tuple(min(a, b) for a, b in zip(lo_raw, hi_raw))
    hi = tuple(max(a, b) for a, b in zip(lo_raw, hi_raw))
    assert sorted(tree.query_range(lo, hi)) == brute_force(points, lo, hi)


@given(points=st.lists(coordinates, min_size=1, max_size=40), data=st.data())
@settings(max_examples=40, deadline=None)
def test_deletion_removes_exactly_the_deleted_points(points, data):
    tree = KDTree.build([(p, i) for i, p in enumerate(points)])
    to_delete = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(points) - 1), max_size=len(points))
    )
    for index in to_delete:
        assert tree.remove(index)
    live = set(range(len(points))) - to_delete
    assert len(tree) == len(live)
    everything = tree.query_range((-100, -100, -100), (100, 100, 100))
    assert sorted(everything) == sorted(live)


@given(points=point_sets)
@settings(max_examples=30, deadline=None)
def test_incremental_insert_equals_batch_build(points):
    batch = KDTree.build([(p, i) for i, p in enumerate(points)], dimensions=3)
    incremental = KDTree(3)
    for i, p in enumerate(points):
        incremental.insert(p, i)
    lo, hi = (-100, -100, -100), (100, 100, 100)
    assert sorted(batch.query_range(lo, hi)) == sorted(incremental.query_range(lo, hi))
