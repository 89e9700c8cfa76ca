"""The O(n^2) clustering scan: the reference of the KD-tree range query.

:class:`ScanIndex` has the four methods the clustering step calls on
:class:`repro.geometry.KDTree` (``build``, ``insert``, ``remove`` and
``query_range``) over a plain dict, and answers a range query by testing
every live point.  It returns the same payloads as the tree, in another
order; ``cluster_characters`` sorts the candidates, so the clusters come out
identical.  Tests put it in place of the tree with
``monkeypatch.setattr(repro.core.twodim.clustering, "KDTree", ScanIndex)``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

__all__ = ["ScanIndex"]


class ScanIndex:
    """Live points keyed by payload; every range query scans them all."""

    def __init__(self) -> None:
        self._points: dict[Hashable, tuple[float, ...]] = {}

    @classmethod
    def build(
        cls,
        points: Iterable[tuple[Sequence[float], Hashable]],
        dimensions: int | None = None,
    ) -> "ScanIndex":
        index = cls()
        for coords, payload in points:
            index.insert(coords, payload)
        return index

    def insert(self, coords: Sequence[float], payload: Hashable) -> None:
        self._points[payload] = tuple(float(c) for c in coords)

    def remove(self, payload: Hashable) -> bool:
        return self._points.pop(payload, None) is not None

    def query_range(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> list[Hashable]:
        """Payloads of all live points with ``lower[d] <= x[d] <= upper[d]``."""
        return [
            payload
            for payload, point in self._points.items()
            if all(lo <= v <= hi for lo, v, hi in zip(lower, point, upper))
        ]
