"""Maximum-weight bipartite matching.

Section 3.5 of the paper formulates post-insertion as a maximum weighted
matching between "additional characters" and stencil rows (at most one
inserted character per row).  This module implements the matching substrate
from scratch as a successive-shortest-augmenting-path assignment algorithm
(a sparse Kuhn–Munkres / Hungarian variant) with the augmenting-path inner
loops vectorized over NumPy slack arrays.  The test suite checks it against
a pure-Python Hungarian oracle (bit-identical matchings), SciPy's
``linear_sum_assignment`` (equal weight) and NetworkX.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, TypeVar

import numpy as np

__all__ = ["max_weight_matching", "matching_weight"]

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


def max_weight_matching(weights: Mapping[tuple[L, R], float]) -> dict[L, R]:
    """Maximum-weight matching of a bipartite graph given by an edge-weight map.

    Parameters
    ----------
    weights:
        ``{(left, right): weight}``.  Only edges present in the map may be
        matched; weights may be any finite floats.  Edges with non-positive
        weight are allowed but will only be used if they increase the total.

    Returns
    -------
    dict
        ``{left: right}`` for the matched pairs.  Vertices may stay unmatched
        (maximum *weight*, not maximum cardinality: an edge is only used when
        it improves the objective).
    """
    if not weights:
        return {}

    left_nodes: list[L] = sorted({l for l, _ in weights}, key=repr)
    right_nodes: list[R] = sorted({r for _, r in weights}, key=repr)
    left_index = {l: i for i, l in enumerate(left_nodes)}
    right_index = {r: j for j, r in enumerate(right_nodes)}

    n_left = len(left_nodes)
    n_right = len(right_nodes)

    # Assignment-problem reduction: pad to a square matrix where "unmatched"
    # corresponds to a zero-weight dummy assignment, then run the Hungarian
    # algorithm on costs = (max_weight - weight).
    size = n_left + n_right  # enough dummies so every real vertex can opt out
    weight_matrix = np.zeros((size, size))
    for (l, r), w in weights.items():
        weight_matrix[left_index[l], right_index[r]] = max(w, 0.0)

    assignment = _hungarian_max(weight_matrix)

    result: dict[L, R] = {}
    for i, j in enumerate(assignment):
        if i < n_left and j is not None and j < n_right:
            l, r = left_nodes[i], right_nodes[j]
            if (l, r) in weights and weights[(l, r)] > 0:
                result[l] = r
    return result


def matching_weight(
    matching: Mapping[L, R], weights: Mapping[tuple[L, R], float]
) -> float:
    """Total weight of a matching under the given edge weights."""
    return float(sum(weights[(l, r)] for l, r in matching.items()))


def _hungarian_max(weight_matrix: np.ndarray) -> list[int | None]:
    """Hungarian algorithm maximizing total weight on a square matrix.

    Returns ``assignment[row] = column``.  Implementation follows the O(n^3)
    potentials formulation (Jonker–Volgenant style shortest augmenting paths)
    on the cost matrix ``max - weight``, with the two O(n) inner loops of
    each augmenting step — the slack (``minv``) update and the potential
    update — vectorized over NumPy arrays.  Operation-for-operation (and
    tie-break-for-tie-break: ``argmin`` keeps the first minimum exactly like
    a scalar scan) identical to the pure-Python oracle of the test suite.
    """
    n = len(weight_matrix)
    if n == 0:
        return []
    w = np.asarray(weight_matrix, dtype=float)
    cost = w.max() - w

    # Potentials and matching arrays use 1-based indexing internally.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j] = row matched to column j
    way = np.zeros(n + 1, dtype=int)
    inf = math.inf

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            # Slack update over all unused columns at once.
            cur = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            if better.any():
                minv[1:][better] = cur[better]
                way[1:][better] = j0
            masked = np.where(free, minv[1:], inf)
            j1 = int(masked.argmin()) + 1
            delta = masked[j1 - 1]
            # Potential update: every used column's matched row is distinct
            # (they form the alternating tree), so fancy indexing is safe.
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    assignment: list[int | None] = [None] * n
    for j in range(1, n + 1):
        if p[j]:
            assignment[p[j] - 1] = j - 1
    return assignment
