"""Reference assignment solvers for :mod:`repro.matching`.

:func:`hungarian_max_scalar` is the pure-Python Hungarian algorithm the
NumPy solver vectorizes operation for operation, so their matchings are
bit-identical.  :func:`assignment_scipy` is SciPy's
``linear_sum_assignment``, which may break ties differently but never finds
less weight.  :func:`max_weight_matching` runs either one through the same
padded assignment reduction as :func:`repro.matching.max_weight_matching`.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Sequence

from scipy.optimize import linear_sum_assignment

__all__ = ["assignment_scipy", "hungarian_max_scalar", "max_weight_matching"]

Assignment = list[int | None]


def max_weight_matching(
    weights: Mapping[tuple[Hashable, Hashable], float],
    solve: Callable[[list[list[float]]], Assignment],
) -> dict:
    """``{left: right}`` of a maximum-weight matching, solved by ``solve``."""
    if not weights:
        return {}
    left_nodes = sorted({l for l, _ in weights}, key=repr)
    right_nodes = sorted({r for _, r in weights}, key=repr)
    left_index = {l: i for i, l in enumerate(left_nodes)}
    right_index = {r: j for j, r in enumerate(right_nodes)}
    # "Unmatched" is a zero-weight dummy assignment on the padded square.
    size = len(left_nodes) + len(right_nodes)
    matrix = [[0.0] * size for _ in range(size)]
    for (l, r), w in weights.items():
        matrix[left_index[l]][right_index[r]] = max(w, 0.0)
    result = {}
    for i, j in enumerate(solve(matrix)):
        if i < len(left_nodes) and j is not None and j < len(right_nodes):
            l, r = left_nodes[i], right_nodes[j]
            if (l, r) in weights and weights[(l, r)] > 0:
                result[l] = r
    return result


def assignment_scipy(weight_matrix: Sequence[Sequence[float]]) -> Assignment:
    """``linear_sum_assignment`` on a square weight matrix (maximizing)."""
    rows, cols = linear_sum_assignment(weight_matrix, maximize=True)
    assignment: Assignment = [None] * len(weight_matrix)
    for i, j in zip(rows, cols):
        assignment[int(i)] = int(j)
    return assignment


def hungarian_max_scalar(weight_matrix: Sequence[Sequence[float]]) -> Assignment:
    """Pure-Python Hungarian algorithm maximizing total weight.

    Returns ``assignment[row] = column``, following the O(n^3) potentials
    formulation on the cost matrix ``max - weight`` with 1-based indexing.
    """
    n = len(weight_matrix)
    if n == 0:
        return []
    max_weight = max(max(row) for row in weight_matrix)
    cost = [[max_weight - w for w in row] for row in weight_matrix]

    # Potentials and matching arrays use 1-based indexing internally.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment: Assignment = [None] * n
    for j in range(1, n + 1):
        if p[j]:
            assignment[p[j] - 1] = j - 1
    return assignment
