"""ILP formulations for 1DOSP.

Two formulations from the paper:

* :func:`build_full_ilp` — the exact co-optimization formulation (3), with
  explicit x positions and pairwise ordering variables.  Exponentially hard;
  only used for the tiny Table 5 instances and as a ground-truth oracle in
  tests.
* :func:`build_simplified_formulation` — the knapsack-style simplified
  formulation (4) built on the symmetric-blank assumption (Lemma 1), whose LP
  relaxation drives the successive-rounding loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.model import OSPInstance
from repro.solver import LinearProgram, solve_lp_arrays
from repro.solver.result import SolveStatus

__all__ = [
    "SimplifiedFormulation",
    "SimplifiedLPStructure",
    "build_simplified_formulation",
    "build_full_ilp",
]


@dataclass
class SimplifiedFormulation:
    """The simplified program (4) plus the variable-index bookkeeping.

    ``assign_index[(i, j)]`` is the LP variable index of ``a_ij`` (character
    ``i`` assigned to row ``j``); ``blank_index[j]`` is the index of ``B_j``.
    Only *unsolved* characters and rows with remaining capacity appear.
    """

    program: LinearProgram
    assign_index: dict[tuple[int, int], int]
    blank_index: dict[int, int]

    def assignment_values(self, values: Sequence[float]) -> dict[tuple[int, int], float]:
        """Extract the ``a_ij`` values from a solver solution vector."""
        return {key: values[idx] for key, idx in self.assign_index.items()}


def build_simplified_formulation(
    instance: OSPInstance,
    profits: Sequence[float],
    characters: Sequence[int],
    row_capacity: Sequence[float],
    row_min_blank: Sequence[float],
    relax: bool = False,
) -> SimplifiedFormulation:
    """Build the simplified program (4) over a subset of characters.

    Parameters
    ----------
    instance:
        The OSP instance.
    profits:
        Profit value per character (full-length vector, Eqn. 6).
    characters:
        Indices of the characters still unsolved (decision variables are only
        created for these).
    row_capacity:
        Remaining body capacity ``W - sum (w - s)`` of every row, i.e. how
        much additional character body width the row can still take before
        accounting for the shared end blank ``B_j``.
    row_min_blank:
        Current maximum symmetric blank already on each row; ``B_j`` is lower
        bounded by it.
    relax:
        Build ``a_ij`` as continuous [0, 1] variables instead of binaries
        (successive rounding always solves the relaxation).
    """
    program = LinearProgram(name="1d-simplified", maximize=True)
    assign_index: dict[tuple[int, int], int] = {}
    blank_index: dict[int, int] = {}
    rows = range(len(row_capacity))

    for j in rows:
        blank_index[j] = program.add_variable(f"B{j}", lower=0.0, upper=float("inf"))

    objective: dict[int, float] = {}
    for i in characters:
        ch = instance.characters[i]
        for j in rows:
            if ch.width - ch.symmetric_hblank > row_capacity[j] + 1e-9:
                continue  # cannot fit this row at all; skip the variable
            if relax:
                idx = program.add_variable(f"a[{i},{j}]", lower=0.0, upper=1.0)
            else:
                idx = program.add_binary(f"a[{i},{j}]")
            assign_index[(i, j)] = idx
            objective[idx] = profits[i]

    # (4a) per-row capacity: sum_i (w_i - s_i) a_ij + B_j <= capacity_j
    for j in rows:
        coeffs: dict[int, float] = {blank_index[j]: 1.0}
        for i in characters:
            idx = assign_index.get((i, j))
            if idx is None:
                continue
            ch = instance.characters[i]
            coeffs[idx] = ch.width - ch.symmetric_hblank
        program.add_constraint(coeffs, "<=", row_capacity[j], name=f"cap[{j}]")
        # B_j is at least the largest blank already present on the row.
        if row_min_blank[j] > 0:
            program.add_constraint(
                {blank_index[j]: 1.0}, ">=", row_min_blank[j], name=f"minblank[{j}]"
            )

    # (4b) B_j >= s_i * a_ij  for every candidate variable
    for (i, j), idx in assign_index.items():
        s_i = instance.characters[i].symmetric_hblank
        if s_i > 0:
            program.add_constraint(
                {idx: s_i, blank_index[j]: -1.0}, "<=", 0.0, name=f"blank[{i},{j}]"
            )

    # (4c) each character goes to at most one row
    for i in characters:
        coeffs = {
            assign_index[(i, j)]: 1.0 for j in rows if (i, j) in assign_index
        }
        if coeffs:
            program.add_constraint(coeffs, "<=", 1.0, name=f"once[{i}]")

    program.set_objective(objective, maximize=True)
    return SimplifiedFormulation(
        program=program, assign_index=assign_index, blank_index=blank_index
    )


class SimplifiedLPStructure:
    """Reusable constraint-matrix *structure* of the simplified program (4).

    The successive-rounding loop solves the LP relaxation of (4) dozens of
    times over a shrinking character set.  Only three things change between
    iterations: the objective (profits), the right-hand sides (remaining row
    capacities / minimum blanks), and *which* (character, row) variables are
    still admissible.  The constraint matrix itself — capacity rows, blank
    coupling rows, assign-once rows — is structurally constant.

    This class therefore assembles the matrix **once** as COO triplets
    (straight into :mod:`scipy.sparse`, no per-row dict materialization) and
    re-slices per iteration by fixing retired variables to ``[0, 0]`` bounds
    and refreshing the rhs vector.  HiGHS' presolve removes the fixed columns
    at negligible cost, so each iteration pays O(nnz) for the solve only, not
    for a Python-level rebuild.

    Variable layout: columns ``0..m-1`` are the per-row end blanks ``B_j``;
    column ``m + k`` is the k-th candidate pair ``a_ij`` (pairs enumerated in
    (character, row) lexicographic order over the candidates that fit an
    *empty* row — capacities only ever shrink, so this is a superset of every
    iteration's admissible set).
    """

    def __init__(
        self,
        instance: OSPInstance,
        characters: Sequence[int],
        row_capacity: Sequence[float],
    ) -> None:
        self.instance = instance
        self.characters = sorted(characters)
        m = len(row_capacity)
        self.num_rows = m

        chars = np.asarray(self.characters, dtype=int)
        widths = np.array([instance.characters[i].width for i in chars], dtype=float)
        blanks = np.array(
            [instance.characters[i].symmetric_hblank for i in chars], dtype=float
        )
        bodies = widths - blanks
        capacity = np.asarray(row_capacity, dtype=float)

        # Candidate pairs: character x row combinations that fit the row's
        # capacity at build time (a superset of all later iterations).
        fits = bodies[:, None] <= capacity[None, :] + 1e-9
        pos, rows = np.nonzero(fits)
        self.pair_char = chars[pos]            # original character indices
        self.pair_row = rows.astype(int)
        self.pair_body = bodies[pos]
        self.pair_blank = blanks[pos]
        k = len(self.pair_char)
        self.num_pairs = k
        self.num_variables = m + k
        pair_cols = m + np.arange(k)

        # --- COO triplets --------------------------------------------------
        # (4a) cap[j]:       B_j + sum_i body_i a_ij            <= capacity_j
        # (min) minblank[j]: -B_j                               <= -min_blank_j
        # (4b) blank[i,j]:   s_i a_ij - B_j                     <= 0
        # (4c) once[i]:      sum_j a_ij                         <= 1
        coupled = np.nonzero(self.pair_blank > 0)[0]
        n_blank = len(coupled)
        char_pos = {int(i): p for p, i in enumerate(self.characters)}
        once_row_of_pair = np.array(
            [char_pos[int(i)] for i in self.pair_char], dtype=int
        )

        rows_coo = np.concatenate(
            [
                np.arange(m),                       # cap: B_j diagonal
                self.pair_row,                      # cap: pair bodies
                m + np.arange(m),                   # minblank: -B_j
                2 * m + np.arange(n_blank),         # blank: s_i a_ij
                2 * m + np.arange(n_blank),         # blank: -B_j
                2 * m + n_blank + once_row_of_pair, # once: a_ij
            ]
        )
        cols_coo = np.concatenate(
            [
                np.arange(m),
                pair_cols,
                np.arange(m),
                pair_cols[coupled],
                self.pair_row[coupled],
                pair_cols,
            ]
        )
        vals_coo = np.concatenate(
            [
                np.ones(m),
                self.pair_body,
                -np.ones(m),
                self.pair_blank[coupled],
                -np.ones(n_blank),
                np.ones(k),
            ]
        )
        n_cons = 2 * m + n_blank + len(self.characters)
        self.a_ub = sparse.csr_matrix(
            (vals_coo, (rows_coo, cols_coo)), shape=(n_cons, self.num_variables)
        )
        self._rhs = np.zeros(n_cons)
        self._rhs[2 * m + n_blank :] = 1.0  # once[i] <= 1
        self._n_blank = n_blank
        self._lower = np.zeros(self.num_variables)
        self._upper_template = np.concatenate(
            [np.full(m, np.inf), np.zeros(k)]
        )
        self._unsolved_mask = np.zeros(instance.num_characters, dtype=bool)

    # ------------------------------------------------------------------ #
    # Per-iteration solve
    # ------------------------------------------------------------------ #
    def active_pairs(
        self, row_capacity: Sequence[float], unsolved: Iterable[int]
    ) -> np.ndarray:
        """Mask over candidate pairs admissible under the current state."""
        mask = self._unsolved_mask
        mask[:] = False
        mask[list(unsolved)] = True
        capacity = np.asarray(row_capacity, dtype=float)
        return mask[self.pair_char] & (
            self.pair_body <= capacity[self.pair_row] + 1e-9
        )

    def solve_relaxation(
        self,
        profits: Sequence[float],
        row_capacity: Sequence[float],
        row_min_blank: Sequence[float],
        unsolved: Iterable[int],
    ) -> dict[tuple[int, int], float]:
        """Solve the LP relaxation for the current iteration.

        Returns the ``a_ij`` values of the admissible pairs (empty dict when
        no unsolved character fits any row).  Raises
        :class:`~repro.errors.SolverError` when the LP does not solve to
        optimality: the simplified formulation is always feasible.
        """
        m = self.num_rows
        active = self.active_pairs(row_capacity, unsolved)
        if not active.any():
            return {}

        rhs = self._rhs.copy()
        rhs[:m] = np.asarray(row_capacity, dtype=float)
        rhs[m : 2 * m] = -np.asarray(row_min_blank, dtype=float)

        upper = self._upper_template.copy()
        upper[m:][active] = 1.0

        profits_arr = np.asarray(profits, dtype=float)
        c = np.zeros(self.num_variables)
        c[m:][active] = profits_arr[self.pair_char[active]]

        solution = solve_lp_arrays(
            c, self.a_ub, rhs, self._lower, upper, maximize=True
        )
        if solution.status != SolveStatus.OPTIMAL:
            raise SolverError(
                f"successive rounding LP returned {solution.status}; "
                "the simplified formulation should always be feasible"
            )
        values = solution.values
        return {
            (int(self.pair_char[t]), int(self.pair_row[t])): values[m + t]
            for t in np.nonzero(active)[0]
        }


def build_full_ilp(instance: OSPInstance, num_rows: int | None = None):
    """Exact 1DOSP formulation (3): selection, row assignment, and x positions.

    Returns ``(program, index)`` where ``index`` is a dictionary with the
    variable indices: ``index["T"]``, ``index["a"][(i, k)]``,
    ``index["x"][i]``, ``index["p"][(i, j)]``.

    The formulation is only practical for a handful of characters (the paper
    could not solve 14-character cases within an hour with GUROBI); it exists
    for the Table 5 comparison and as a correctness oracle.
    """
    m = num_rows if num_rows is not None else instance.row_count()
    n = instance.num_characters
    width = instance.stencil.width
    program = LinearProgram(name="1d-full-ilp", maximize=False)

    t_index = program.add_variable("T", lower=0.0, upper=float("inf"))
    x_index = {
        i: program.add_variable(f"x{i}", lower=0.0, upper=width)
        for i in range(n)
    }
    a_index = {
        (i, k): program.add_binary(f"a[{i},{k}]") for i in range(n) for k in range(m)
    }
    p_index = {
        (i, j): program.add_binary(f"p[{i},{j}]")
        for i in range(n)
        for j in range(i + 1, n)
    }

    # (3a) T >= T_VSB(c) - sum_i sum_k R_ic a_ik
    for c in range(instance.num_regions):
        coeffs: dict[int, float] = {t_index: 1.0}
        for i in range(n):
            r_ic = instance.reduction(i, c)
            for k in range(m):
                coeffs[a_index[(i, k)]] = coeffs.get(a_index[(i, k)], 0.0) + r_ic
        program.add_constraint(coeffs, ">=", instance.vsb_time(c), name=f"time[{c}]")

    # (3b) 0 <= x_i <= W - w_i
    for i in range(n):
        program.add_constraint(
            {x_index[i]: 1.0}, "<=", width - instance.characters[i].width, name=f"xmax[{i}]"
        )

    # (3c) sum_k a_ik <= 1
    for i in range(n):
        program.add_constraint(
            {a_index[(i, k)]: 1.0 for k in range(m)}, "<=", 1.0, name=f"once[{i}]"
        )

    # (3d)/(3e) pairwise non-overlap on a shared row
    for i in range(n):
        for j in range(i + 1, n):
            ci = instance.characters[i]
            cj = instance.characters[j]
            w_ij = ci.width - ci.horizontal_overlap(cj)
            w_ji = cj.width - cj.horizontal_overlap(ci)
            for k in range(m):
                # x_i + w_ij - x_j <= W (2 + p_ij - a_ik - a_jk)
                program.add_constraint(
                    {
                        x_index[i]: 1.0,
                        x_index[j]: -1.0,
                        p_index[(i, j)]: -width,
                        a_index[(i, k)]: width,
                        a_index[(j, k)]: width,
                    },
                    "<=",
                    2 * width - w_ij,
                    name=f"left[{i},{j},{k}]",
                )
                # x_j + w_ji - x_i <= W (3 - p_ij - a_ik - a_jk)
                program.add_constraint(
                    {
                        x_index[j]: 1.0,
                        x_index[i]: -1.0,
                        p_index[(i, j)]: width,
                        a_index[(i, k)]: width,
                        a_index[(j, k)]: width,
                    },
                    "<=",
                    3 * width - w_ji,
                    name=f"right[{i},{j},{k}]",
                )

    program.set_objective({t_index: 1.0}, maximize=False)
    index = {"T": t_index, "a": a_index, "x": x_index, "p": p_index}
    return program, index
