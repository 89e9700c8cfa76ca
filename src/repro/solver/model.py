"""A small linear/integer-programming model builder.

The paper solves its formulations with GUROBI; this library replaces that
proprietary dependency with a thin, dependency-light modelling layer solved
by SciPy's HiGHS ``linprog``/``milp`` (:mod:`repro.solver.scipy_backend`).

The modelling layer intentionally supports exactly what the E-BLOW
formulations (3), (4), and (7) need: bounded continuous/binary variables,
linear constraints, and a linear objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError

__all__ = ["Variable", "Constraint", "LinearProgram", "LinearExpr"]

_SENSES = ("<=", ">=", "==")


@dataclass(frozen=True)
class Variable:
    """A decision variable."""

    name: str
    index: int
    lower: float = 0.0
    upper: float = math.inf
    is_integer: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValidationError(
                f"variable {self.name!r}: lower bound {self.lower} exceeds "
                f"upper bound {self.upper}"
            )


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coeff * var) sense rhs``."""

    coefficients: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValidationError(f"constraint sense must be one of {_SENSES}")

    def evaluate(self, values: Sequence[float]) -> float:
        """Left-hand-side value for a variable assignment."""
        return sum(coeff * values[idx] for idx, coeff in self.coefficients)

    def satisfied(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Whether the assignment satisfies the constraint within ``tol``."""
        lhs = self.evaluate(values)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


class LinearExpr:
    """A mutable linear expression used for incremental model building."""

    __slots__ = ("terms", "constant")

    def __init__(self) -> None:
        self.terms: dict[int, float] = {}
        self.constant: float = 0.0

    def add(self, var_index: int, coefficient: float) -> "LinearExpr":
        """Add ``coefficient * variable`` to the expression."""
        if coefficient:
            self.terms[var_index] = self.terms.get(var_index, 0.0) + coefficient
            if self.terms[var_index] == 0.0:
                del self.terms[var_index]
        return self

    def add_constant(self, value: float) -> "LinearExpr":
        """Add a constant offset to the expression."""
        self.constant += value
        return self

    def items(self) -> Iterable[tuple[int, float]]:
        return self.terms.items()


class LinearProgram:
    """A linear (or mixed-integer) program in natural form.

    Variables are added with :meth:`add_variable` / :meth:`add_binary` and
    referenced by the integer index those methods return.  Constraints take a
    mapping ``{variable_index: coefficient}``.
    """

    def __init__(self, name: str = "lp", maximize: bool = False) -> None:
        self.name = name
        self.maximize = maximize
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: dict[int, float] = {}
        self.objective_constant: float = 0.0

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        is_integer: bool = False,
    ) -> int:
        """Add a variable and return its index."""
        index = len(self.variables)
        self.variables.append(
            Variable(name=name, index=index, lower=lower, upper=upper, is_integer=is_integer)
        )
        return index

    def add_binary(self, name: str) -> int:
        """Add a 0/1 variable and return its index."""
        return self.add_variable(name, lower=0.0, upper=1.0, is_integer=True)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_indices(self) -> list[int]:
        """Indices of the integer-constrained variables."""
        return [v.index for v in self.variables if v.is_integer]

    def relaxed(self) -> "LinearProgram":
        """A copy of the program with all integrality constraints dropped."""
        lp = LinearProgram(name=f"{self.name}-relaxed", maximize=self.maximize)
        for v in self.variables:
            lp.add_variable(v.name, v.lower, v.upper, is_integer=False)
        lp.constraints = list(self.constraints)
        lp._objective = dict(self._objective)
        lp.objective_constant = self.objective_constant
        return lp

    def with_bounds(self, bounds: Mapping[int, tuple[float, float]]) -> "LinearProgram":
        """A copy of the program with some variable bounds overridden."""
        lp = LinearProgram(name=self.name, maximize=self.maximize)
        for v in self.variables:
            lo, hi = bounds.get(v.index, (v.lower, v.upper))
            lp.add_variable(v.name, lo, hi, is_integer=v.is_integer)
        lp.constraints = list(self.constraints)
        lp._objective = dict(self._objective)
        lp.objective_constant = self.objective_constant
        return lp

    # ------------------------------------------------------------------ #
    # Constraints and objective
    # ------------------------------------------------------------------ #
    def add_constraint(
        self,
        coefficients: Mapping[int, float] | LinearExpr,
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Add ``sum(coeff * var) sense rhs`` and return the constraint."""
        if isinstance(coefficients, LinearExpr):
            rhs = rhs - coefficients.constant
            coefficients = coefficients.terms
        for idx in coefficients:
            if idx < 0 or idx >= len(self.variables):
                raise ValidationError(
                    f"constraint {name!r} references unknown variable index {idx}"
                )
        constraint = Constraint(
            coefficients=tuple(sorted(coefficients.items())),
            sense=sense,
            rhs=rhs,
            name=name,
        )
        self.constraints.append(constraint)
        return constraint

    def set_objective(
        self,
        coefficients: Mapping[int, float] | LinearExpr,
        maximize: bool | None = None,
        constant: float = 0.0,
    ) -> None:
        """Set the linear objective."""
        if isinstance(coefficients, LinearExpr):
            constant += coefficients.constant
            coefficients = coefficients.terms
        for idx in coefficients:
            if idx < 0 or idx >= len(self.variables):
                raise ValidationError(f"objective references unknown variable index {idx}")
        self._objective = {i: c for i, c in coefficients.items() if c}
        self.objective_constant = constant
        if maximize is not None:
            self.maximize = maximize

    @property
    def objective(self) -> dict[int, float]:
        """Objective coefficients keyed by variable index."""
        return dict(self._objective)

    def objective_value(self, values: Sequence[float]) -> float:
        """Objective value (in the program's sense) of an assignment."""
        return (
            sum(c * values[i] for i, c in self._objective.items())
            + self.objective_constant
        )

    # ------------------------------------------------------------------ #
    # Feasibility checking (used heavily by tests)
    # ------------------------------------------------------------------ #
    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Whether an assignment satisfies all bounds and constraints."""
        if len(values) != len(self.variables):
            return False
        for v in self.variables:
            x = values[v.index]
            if x < v.lower - tol or x > v.upper + tol:
                return False
            if v.is_integer and abs(x - round(x)) > tol:
                return False
        return all(c.satisfied(values, tol) for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        sense = "max" if self.maximize else "min"
        return (
            f"LinearProgram({self.name!r}, {sense}, "
            f"{self.num_variables} vars, {self.num_constraints} cons)"
        )
