"""A k-dimensional tree with orthogonal range search and lazy deletion.

Section 4.2 of the paper speeds up the character-clustering step with a
KD-tree [Bentley 1975]: each character becomes a point whose coordinates are
its width, height, blank spaces, and profit, and "find a similar unclustered
character" becomes an orthogonal range query.  This module implements that
data structure from scratch:

* balanced construction from a batch of points (median split, cycling axes),
* incremental insertion,
* orthogonal range search (``query_range``),
* lazy deletion (``remove``) — clustered characters are masked out without
  rebuilding the tree, matching how Algorithm 4 consumes candidates.

Every subtree maintains a tight bounding box over its *live* points
(refreshed in the same pass that maintains live counts), and
``query_range`` prunes descents against it — results and their order are
identical to the unpruned search, only the visited-node count shrinks.
The clustering step (:mod:`repro.core.twodim.clustering`) calls only
``build``, ``insert``, ``remove`` and ``query_range``.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Generic, Hashable, Iterable, Sequence, TypeVar

from repro.errors import ValidationError

__all__ = ["KDTree"]

T = TypeVar("T", bound=Hashable)


@dataclass
class _Node(Generic[T]):
    point: tuple[float, ...]
    payload: T
    axis: int
    deleted: bool = False
    left: "_Node[T] | None" = None
    right: "_Node[T] | None" = None
    # Parent link (None at the root): lazy deletion and insertion update the
    # maintained aggregates along the root path only — O(depth) per
    # mutation, not O(n).  Excluded from repr/compare to avoid the cycle.
    parent: "_Node[T] | None" = dataclass_field(
        default=None, repr=False, compare=False
    )
    subtree_size: int = 1  # live (non-deleted) nodes in this subtree
    # Tight per-coordinate bounds over the *live* points of this subtree
    # (None while the subtree has no live points).  Range queries prune any
    # descent whose subtree box is disjoint from the query box, which is the
    # difference between visiting O(n) nodes and O(sqrt(n) + k) for the
    # narrow windows the clustering step issues.
    bbox_lo: tuple[float, ...] | None = None
    bbox_hi: tuple[float, ...] | None = None


class KDTree(Generic[T]):
    """A point KD-tree keyed by fixed-dimension float vectors.

    Parameters
    ----------
    dimensions:
        Number of coordinates per point.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions <= 0:
            raise ValidationError("KDTree needs at least one dimension")
        self.dimensions = dimensions
        self._root: _Node[T] | None = None
        self._size = 0
        self._payload_to_node: dict[T, _Node[T]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, points: Iterable[tuple[Sequence[float], T]], dimensions: int | None = None
    ) -> "KDTree[T]":
        """Build a balanced tree from ``(coordinates, payload)`` pairs."""
        items = [(tuple(float(c) for c in coords), payload) for coords, payload in points]
        if not items:
            if dimensions is None:
                raise ValidationError("cannot infer dimensions from an empty point set")
            return cls(dimensions)
        dims = dimensions if dimensions is not None else len(items[0][0])
        tree = cls(dims)
        for coords, _ in items:
            if len(coords) != dims:
                raise ValidationError(
                    f"point {coords} has {len(coords)} coordinates, expected {dims}"
                )
        tree._root = tree._build_recursive(items, depth=0)
        tree._size = len(items)
        return tree

    def _build_recursive(
        self, items: list[tuple[tuple[float, ...], T]], depth: int
    ) -> _Node[T] | None:
        if not items:
            return None
        axis = depth % self.dimensions
        items.sort(key=lambda item: item[0][axis])
        median = len(items) // 2
        coords, payload = items[median]
        node = _Node(point=coords, payload=payload, axis=axis)
        self._payload_to_node[payload] = node
        node.left = self._build_recursive(items[:median], depth + 1)
        node.right = self._build_recursive(items[median + 1 :], depth + 1)
        for child in (node.left, node.right):
            if child is not None:
                child.parent = node
        node.subtree_size = 1 + _live_size(node.left) + _live_size(node.right)
        _recompute_bbox(node)
        return node

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, coords: Sequence[float], payload: T) -> None:
        """Insert a point (O(log n) on average)."""
        point = tuple(float(c) for c in coords)
        if len(point) != self.dimensions:
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {self.dimensions}"
            )
        if payload in self._payload_to_node and not self._payload_to_node[payload].deleted:
            raise ValidationError(f"payload {payload!r} already present")
        new_node = _Node(point=point, payload=payload, axis=0, bbox_lo=point, bbox_hi=point)
        if self._root is None:
            self._root = new_node
        else:
            node = self._root
            path = []
            while True:
                path.append(node)
                axis = node.axis
                branch = "left" if point[axis] < node.point[axis] else "right"
                child = getattr(node, branch)
                if child is None:
                    new_node.axis = (axis + 1) % self.dimensions
                    new_node.parent = node
                    setattr(node, branch, new_node)
                    break
                node = child
            for ancestor in path:
                ancestor.subtree_size += 1
                _extend_bbox(ancestor, point)
        self._payload_to_node[payload] = new_node
        self._size += 1

    def remove(self, payload: T) -> bool:
        """Lazily delete the point carrying ``payload``.

        Returns ``True`` when the payload existed and was live.  The node is
        only masked; queries skip it and subtree counts are updated so empty
        subtrees can be pruned during search.
        """
        node = self._payload_to_node.get(payload)
        if node is None or node.deleted:
            return False
        node.deleted = True
        self._size -= 1
        # Lazy deletion keeps the structure intact; only the aggregates on
        # the root path change — live counts and tight live bounding boxes
        # are repaired in O(depth), so range queries can prune fully-deleted
        # *and* out-of-window subtrees without a full-tree refresh per
        # removal (the clustering step removes a point per cluster member).
        current: _Node[T] | None = node
        while current is not None:
            current.subtree_size -= 1
            _recompute_bbox(current)
            current = current.parent
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def __contains__(self, payload: T) -> bool:
        node = self._payload_to_node.get(payload)
        return node is not None and not node.deleted

    def query_range(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> list[T]:
        """Payloads of all live points with ``lower[d] <= x[d] <= upper[d]``."""
        lo = tuple(float(c) for c in lower)
        hi = tuple(float(c) for c in upper)
        if len(lo) != self.dimensions or len(hi) != self.dimensions:
            raise ValidationError("range bounds must match the tree dimensionality")
        result: list[T] = []
        self._range_recursive(self._root, lo, hi, result)
        return result

    def _range_recursive(
        self,
        node: _Node[T] | None,
        lo: tuple[float, ...],
        hi: tuple[float, ...],
        out: list[T],
    ) -> None:
        if node is None or node.subtree_size == 0:
            return
        # Subtree bounding-box pruning, two-sided: a live subtree whose tight
        # box is *disjoint* from the query window contributes nothing (stop);
        # one whose box is *contained* in the window contributes every live
        # point (collect without any further coordinate tests).  Both short
        # cuts preserve the unpruned search's depth-first output order.
        box_lo = node.bbox_lo
        if box_lo is not None:
            box_hi = node.bbox_hi
            inside = True
            for d in range(self.dimensions):
                window_lo = lo[d]
                window_hi = hi[d]
                if box_hi[d] < window_lo or window_hi < box_lo[d]:
                    return
                if box_lo[d] < window_lo or window_hi < box_hi[d]:
                    inside = False
            if inside:
                _collect_live(node, out)
                return
        axis = node.axis
        value = node.point[axis]
        if not node.deleted and all(
            lo[d] <= node.point[d] <= hi[d] for d in range(self.dimensions)
        ):
            out.append(node.payload)
        if lo[axis] <= value:
            self._range_recursive(node.left, lo, hi, out)
        if value <= hi[axis]:
            self._range_recursive(node.right, lo, hi, out)


def _live_size(node: _Node | None) -> int:
    return 0 if node is None else node.subtree_size


def _recompute_bbox(node: _Node) -> None:
    """Tight live bounds of ``node``'s subtree from its point + child boxes."""
    lo = hi = None
    if not node.deleted:
        lo = hi = node.point
    for child in (node.left, node.right):
        if child is None or child.bbox_lo is None:
            continue
        if lo is None:
            lo, hi = child.bbox_lo, child.bbox_hi
        else:
            lo = tuple(min(a, b) for a, b in zip(lo, child.bbox_lo))
            hi = tuple(max(a, b) for a, b in zip(hi, child.bbox_hi))
    node.bbox_lo, node.bbox_hi = lo, hi


def _collect_live(node: _Node | None, out: list) -> None:
    """Append every live payload of the subtree in depth-first order.

    Matches the visit order of the filtered search exactly (node, then left,
    then right), so the fully-inside fast path is indistinguishable from the
    per-point test in output.
    """
    if node is None or node.subtree_size == 0:
        return
    if not node.deleted:
        out.append(node.payload)
    _collect_live(node.left, out)
    _collect_live(node.right, out)


def _extend_bbox(node: _Node, point: tuple[float, ...]) -> None:
    """Grow ``node``'s subtree box to cover a newly inserted live point."""
    if node.bbox_lo is None:
        node.bbox_lo = node.bbox_hi = point
    else:
        node.bbox_lo = tuple(min(a, b) for a, b in zip(node.bbox_lo, point))
        node.bbox_hi = tuple(max(a, b) for a, b in zip(node.bbox_hi, point))
