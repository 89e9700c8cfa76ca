"""Geometric substrate: the KD-tree behind the 2D clustering's range queries."""

from repro.geometry.kdtree import KDTree

__all__ = ["KDTree"]
